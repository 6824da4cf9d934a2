#include "uld3d/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "uld3d/util/check.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::parallel {
namespace {

/// Every test leaves the global jobs setting as it found it (the default).
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { set_jobs(0); }
  void TearDown() override { set_jobs(0); }
};

TEST_F(ParallelTest, JobsConfigRoundTrip) {
  EXPECT_GE(hardware_concurrency(), 1);
  EXPECT_GE(default_jobs(), 1);
  set_jobs(3);
  EXPECT_EQ(jobs(), 3);
  EXPECT_EQ(resolve_jobs(0), 3);   // 0 falls through to the global
  EXPECT_EQ(resolve_jobs(5), 5);   // explicit override wins
  set_jobs(0);                     // restore the default
  EXPECT_EQ(jobs(), default_jobs());
  EXPECT_THROW(set_jobs(-1), PreconditionError);
  EXPECT_THROW(set_jobs(kMaxJobs + 1), PreconditionError);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for_indexed(kN, [&](std::size_t i) { counts[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST_F(ParallelTest, EmptyAndSingleIndexRanges) {
  int calls = 0;
  parallel_for_indexed(0, [&](std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
  std::thread::id body_thread;
  parallel_for_indexed(
      1,
      [&](std::size_t) {
        ++calls;
        body_thread = std::this_thread::get_id();
      },
      8);
  EXPECT_EQ(calls, 1);
  // A single index runs on the calling thread — no pool involvement.
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST_F(ParallelTest, SlotsAssembleInIndexOrder) {
  constexpr std::size_t kN = 512;
  std::vector<std::size_t> slots(kN, 0);
  parallel_for_indexed(kN, [&](std::size_t i) { slots[i] = i * i; }, 8);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(slots[i], i * i);
}

TEST_F(ParallelTest, LowestFailingIndexWinsAtAnyJobsCount) {
  // Bodies throw at 13, 500, and 700: the rethrown exception must always be
  // index 13's — what the serial loop would have thrown first.
  const auto body = [](std::size_t i) {
    if (i == 13 || i == 500 || i == 700) {
      throw StatusError(
          Failure(ErrorCode::kNumericalError, "boom")
              .with("index", static_cast<std::int64_t>(i)));
    }
  };
  for (const int j : {1, 2, 8}) {
    try {
      parallel_for_indexed(800, body, j);
      FAIL() << "expected a StatusError at jobs=" << j;
    } catch (const StatusError& error) {
      ASSERT_EQ(error.failure().context.size(), 1u);
      EXPECT_EQ(error.failure().context[0].second, "13")
          << "wrong failing index surfaced at jobs=" << j;
    }
  }
}

TEST_F(ParallelTest, SerialPathStopsAtFirstThrow) {
  // jobs=1 IS the serial loop: indices after the throw never run.
  std::size_t calls = 0;
  EXPECT_THROW(parallel_for_indexed(
                   100,
                   [&](std::size_t i) {
                     ++calls;
                     if (i == 2) throw StatusError(Failure(
                         ErrorCode::kNumericalError, "boom"));
                   },
                   1),
               StatusError);
  EXPECT_EQ(calls, 3u);  // 0, 1, 2 — exactly the serial prefix
}

TEST_F(ParallelTest, NestedRegionsDoNotDeadlock) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::size_t> sums(kOuter, 0);
  parallel_for_indexed(
      kOuter,
      [&](std::size_t o) {
        std::vector<std::size_t> inner(kInner, 0);
        parallel_for_indexed(kInner, [&](std::size_t i) { inner[i] = o + i; },
                             4);
        std::size_t sum = 0;
        for (const std::size_t v : inner) sum += v;
        sums[o] = sum;
      },
      4);
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], o * kInner + kInner * (kInner - 1) / 2);
  }
}

}  // namespace
}  // namespace uld3d::parallel
