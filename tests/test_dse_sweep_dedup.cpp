// dse sweep-point deduplication: the cross-point computation-reuse layer.
//
// The load-bearing guarantee is BYTE-identity: with a point_key that covers
// every input the evaluator reads, a dedup-on sweep's rows — metrics,
// params, grid_index, failures — are bit-identical to a dedup-off sweep's
// at any jobs count, with or without a checkpoint, across any interrupt
// schedule.  Dedup may only change HOW OFTEN the
// evaluator runs (dse.sweep.dedup_unique evaluations instead of grid-size),
// never what any row holds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "uld3d/dse/checkpoint.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/map_cache_file.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/status.hpp"
#include "uld3d/util/telemetry.hpp"

namespace uld3d::dse {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// x and y feed the evaluator; `budget` is an evaluator-BLIND axis (think a
/// thermal budget checked downstream of pricing), so the 2 budget values
/// make every (x, y) pair appear twice: 24 grid points, 12 key classes.
Grid blind_axis_grid() {
  Grid grid;
  grid.axis("x", {1.0, 2.0, 3.0, 4.0})
      .axis("y", {0.5, 1.5, 2.5})
      .axis("budget", {10.0, 20.0});
  return grid;  // 24 points, 12 unique (x, y) evaluations
}

const std::vector<std::string>& metrics2() {
  static const std::vector<std::string> names{"sum", "ratio"};
  return names;
}

/// Deterministic evaluator reading ONLY x and y; x*y > 7 is infeasible so
/// failure fan-out is covered too.  Counts its invocations.
std::vector<double> eval_xy(const std::vector<double>& p,
                            std::atomic<int>& calls) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (p[0] * p[1] > 7.0) {
    throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "x*y too large")
                          .with("x", p[0])
                          .with("y", p[1]));
  }
  return {p[0] + p[1] / 3.0, p[0] / p[1]};
}

/// Canonical key over exactly the inputs eval_xy reads (NOT the budget).
std::string key_xy(const std::vector<double>& p) {
  char buffer[80];
  std::snprintf(buffer, sizeof buffer, "%.17g,%.17g", p[0], p[1]);
  return buffer;
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  static_assert(sizeof ba == sizeof a);
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

void expect_rows_identical(const std::vector<SweepRow>& a,
                           const std::vector<SweepRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].grid_index, b[i].grid_index) << "row " << i;
    ASSERT_EQ(a[i].params.size(), b[i].params.size());
    for (std::size_t p = 0; p < a[i].params.size(); ++p) {
      EXPECT_TRUE(bits_equal(a[i].params[p], b[i].params[p]))
          << "row " << i << " param " << p;
    }
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
      EXPECT_TRUE(bits_equal(a[i].metrics[m], b[i].metrics[m]))
          << "row " << i << " metric " << m;
    }
    ASSERT_EQ(a[i].ok(), b[i].ok()) << "row " << i;
    if (!a[i].ok()) {
      EXPECT_EQ(a[i].failure->code, b[i].failure->code) << "row " << i;
      EXPECT_EQ(a[i].failure->message, b[i].failure->message) << "row " << i;
      EXPECT_EQ(a[i].failure->context, b[i].failure->context) << "row " << i;
    }
  }
}

/// Resets the global interrupt latch the resume tests trip.
class SweepDedupTest : public ::testing::Test {
 protected:
  void TearDown() override { set_interrupt_requested(false); }
};

TEST_F(SweepDedupTest, RowsBitIdenticalDedupOnVsOffAcrossJobsCounts) {
  const Grid grid = blind_axis_grid();
  for (const int jobs : {1, 8}) {
    std::atomic<int> calls_on{0};
    std::atomic<int> calls_off{0};

    SweepOptions options;
    options.jobs = jobs;
    const SweepResult without_dedup = run_sweep(
        grid, metrics2(),
        [&](const std::vector<double>& p) { return eval_xy(p, calls_off); },
        options);
    options.point_key = key_xy;
    const SweepResult with_dedup = run_sweep(
        grid, metrics2(),
        [&](const std::vector<double>& p) { return eval_xy(p, calls_on); },
        options);

    expect_rows_identical(with_dedup.rows(), without_dedup.rows());
    EXPECT_EQ(with_dedup.failure_summary(), without_dedup.failure_summary());
    EXPECT_EQ(with_dedup.to_table(4).to_string(),
              without_dedup.to_table(4).to_string());
    EXPECT_EQ(calls_on.load(), 12) << "jobs " << jobs;   // one per key class
    EXPECT_EQ(calls_off.load(), 24) << "jobs " << jobs;  // one per point
  }
}

TEST_F(SweepDedupTest, AliasedFailedRowsCarryTheRepresentativesFailure) {
  const Grid grid = blind_axis_grid();
  std::atomic<int> calls{0};
  SweepOptions options;
  options.jobs = 1;
  options.point_key = key_xy;
  const SweepResult result = run_sweep(
      grid, metrics2(),
      [&](const std::vector<double>& p) { return eval_xy(p, calls); },
      options);
  // x*y > 7 fails for (3, 2.5) and (4, 2.5): 2 key classes x 2 budgets.
  EXPECT_EQ(result.failed_count(), 4u);
  for (const std::size_t i : result.failed_rows()) {
    const SweepRow& row = result.rows()[i];
    ASSERT_TRUE(row.failure.has_value());
    EXPECT_EQ(row.failure->code, ErrorCode::kInfeasiblePoint);
    // The alias keeps its OWN params (including the blind budget axis).
    EXPECT_GT(row.params[0] * row.params[1], 7.0);
  }
}

TEST_F(SweepDedupTest, FailFastThrowsTheSameFirstFailureDedupOnOrOff) {
  const Grid grid = blind_axis_grid();
  const std::string path = temp_path("dedup_fail_fast.json");
  std::atomic<int> calls{0};
  const auto evaluate = [&](const std::vector<double>& p) {
    return eval_xy(p, calls);
  };
  const auto first_failure = [&](bool dedup, bool checkpoint) {
    std::remove(path.c_str());
    SweepOptions options;
    options.policy = ErrorPolicy::kFailFast;
    options.jobs = 1;
    if (dedup) options.point_key = key_xy;
    if (checkpoint) options.checkpoint_path = path;
    try {
      (void)run_sweep(grid, metrics2(), evaluate, options);
    } catch (const StatusError& error) {
      return std::string(error.what());
    }
    return std::string("(no failure)");
  };
  const std::string reference = first_failure(false, false);
  EXPECT_NE(reference, "(no failure)");
  EXPECT_EQ(first_failure(true, false), reference);
  EXPECT_EQ(first_failure(false, true), reference);
  EXPECT_EQ(first_failure(true, true), reference);
  std::remove(path.c_str());
}

TEST_F(SweepDedupTest, NullPointKeyEvaluatesEveryPoint) {
  const Grid grid = blind_axis_grid();
  std::atomic<int> calls{0};
  const auto evaluate = [&](const std::vector<double>& p) {
    return eval_xy(p, calls);
  };
  (void)run_sweep(grid, metrics2(), evaluate, {});  // no point_key
  EXPECT_EQ(calls.load(), 24);
}

TEST_F(SweepDedupTest, ResumableDedupMatchesPlainSweepAcrossJobsCounts) {
  const Grid grid = blind_axis_grid();
  const std::string path = temp_path("dedup_checkpointed.json");
  std::atomic<int> calls{0};
  const auto evaluate = [&](const std::vector<double>& p) {
    return eval_xy(p, calls);
  };
  const SweepResult reference = run_sweep(grid, metrics2(), evaluate, {});

  for (const int jobs : {1, 8}) {
    std::remove(path.c_str());
    calls.store(0);
    SweepOptions options;
    options.jobs = jobs;
    options.point_key = key_xy;
    options.checkpoint_path = path;
    options.checkpoint_interval = 3;
    const SweepResult checkpointed =
        run_sweep(grid, metrics2(), evaluate, options);
    expect_rows_identical(checkpointed.rows(), reference.rows());
    EXPECT_EQ(checkpointed.failure_summary(), reference.failure_summary());
    EXPECT_EQ(checkpointed.to_table(4).to_string(),
              reference.to_table(4).to_string());
    EXPECT_EQ(calls.load(), 12) << "jobs " << jobs;
    EXPECT_EQ(load_checkpoint(path).completed_count(), grid.size());
  }
  std::remove(path.c_str());
}

TEST_F(SweepDedupTest, InterruptAndResumeWithDedupStaysBitIdentical) {
  const Grid grid = blind_axis_grid();
  const std::string path = temp_path("dedup_interrupt.json");
  std::remove(path.c_str());

  std::atomic<int> calls{0};
  const SweepResult reference = run_sweep(
      grid, metrics2(),
      [&](const std::vector<double>& p) { return eval_xy(p, calls); }, {});

  // First run: trip the interrupt latch after 4 evaluations.  jobs=1 so the
  // trip point is deterministic.
  set_interrupt_requested(false);
  int evaluated = 0;
  const auto interrupting_eval = [&](const std::vector<double>& p) {
    if (++evaluated == 4) set_interrupt_requested(true);
    return eval_xy(p, calls);
  };
  SweepOptions options;
  options.jobs = 1;
  options.checkpoint_path = path;
  options.checkpoint_interval = 2;
  options.point_key = key_xy;
  EXPECT_THROW((void)run_sweep(grid, metrics2(), interrupting_eval, options),
               SweepInterrupted);
  set_interrupt_requested(false);

  // Resume: only the remaining key classes evaluate; aliased rows were
  // either checkpointed with their representative or are refilled now.
  calls.store(0);
  options.resume = true;
  const SweepResult resumed = run_sweep(
      grid, metrics2(),
      [&](const std::vector<double>& p) { return eval_xy(p, calls); },
      options);
  EXPECT_LT(calls.load(), 12);  // the interrupted run's work was kept
  expect_rows_identical(resumed.rows(), reference.rows());
  EXPECT_EQ(resumed.failure_summary(), reference.failure_summary());
  EXPECT_EQ(resumed.to_table(4).to_string(), reference.to_table(4).to_string());
  std::remove(path.c_str());
}

// Progress is reported per finished POINT: a representative's work item
// also finishes its aliases, and each alias emits its own point_done, so a
// keyed checkpointed sweep over an evaluator-blind axis must report every
// grid index once, not just the representatives.
TEST_F(SweepDedupTest, ProgressReachesTotalOnACheckpointedDedupSweep) {
  const Grid grid = blind_axis_grid();
  const std::string path = temp_path("dedup_progress.json");
  const std::string events = temp_path("dedup_progress.ndjson");
  std::remove(path.c_str());
  std::remove(events.c_str());
  ASSERT_TRUE(EventSink::instance().open(events));
  std::atomic<int> calls{0};
  SweepOptions options;
  options.jobs = 1;
  options.point_key = key_xy;
  options.checkpoint_path = path;
  (void)run_sweep(
      grid, metrics2(),
      [&](const std::vector<double>& p) { return eval_xy(p, calls); },
      options);
  EventSink::instance().close();

  std::vector<int> reports(grid.size(), 0);
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::ifstream in(events);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const JsonValue event = json_parse(line);
    if (event.at("ev").as_string() != "point_done") continue;
    const double index = event.at("index").as_number();
    ASSERT_LT(index, static_cast<double>(reports.size()));
    ++reports[static_cast<std::size_t>(index)];
    ++(event.at("status").as_string() == "ok" ? ok : failed);
  }
  ASSERT_EQ(reports.size(), 24u);
  for (std::size_t g = 0; g < reports.size(); ++g) {
    EXPECT_EQ(reports[g], 1) << "grid index " << g;
  }
  EXPECT_EQ(ok, 20u);
  EXPECT_EQ(failed, 4u);
  EXPECT_EQ(calls.load(), 12);
  std::remove(path.c_str());
  std::remove(events.c_str());
}

// The full reuse stack, crossed: sweep rows through a REAL mapper search
// must be bit-identical across {dedup on/off} x {cold/warm map-cache file}
// x {jobs 1/8}, on randomized layer shapes.  (Interrupt+resume interplay
// has its own test above; refusal coverage lives in
// test_mapper_map_cache_file.)
TEST_F(SweepDedupTest, RandomizedMapperSweepIdenticalAcrossReuseConfigs) {
  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<std::int64_t> k_dist(16, 64);
  std::uniform_int_distribution<std::int64_t> c_dist(4, 16);
  std::uniform_int_distribution<std::int64_t> ox_dist(7, 14);
  std::vector<nn::ConvSpec> shapes(4);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    shapes[i].name = "rand" + std::to_string(i);
    shapes[i].k = k_dist(rng);
    shapes[i].c = c_dist(rng);
    shapes[i].ox = ox_dist(rng);
    shapes[i].oy = ox_dist(rng);
    shapes[i].fx = 3;
    shapes[i].fy = 3;
    shapes[i].stride = 1;
  }
  Grid grid;
  grid.axis("shape", {0.0, 1.0, 2.0, 3.0})
      .axis("n_cs", {1.0, 2.0, 4.0})
      .axis("budget", {10.0, 20.0});  // evaluator-blind: 24 points, 12 keys

  mapper::MapCache& cache = mapper::MapCache::instance();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  const mapper::Architecture arch = mapper::make_table2_architecture(1);
  const auto evaluate = [&](const std::vector<double>& p) {
    const auto& conv = shapes[static_cast<std::size_t>(p[0])];
    const mapper::SpatialSearchResult r = mapper::search_spatial(
        conv, arch, {}, static_cast<std::int64_t>(p[1]));
    return std::vector<double>{r.cost.latency_cycles * r.cost.energy_pj,
                               r.improvement()};
  };
  const auto point_key = [](const std::vector<double>& p) {
    char buffer[80];
    std::snprintf(buffer, sizeof buffer, "%.17g,%.17g", p[0], p[1]);
    return std::string(buffer);
  };

  // Reference: dedup off, cold in-memory cache, serial, no store.
  const std::string store = temp_path("dedup_reuse_cross.bin");
  std::remove(store.c_str());
  cache.clear();
  const SweepResult reference = run_sweep(grid, metrics2(), evaluate, {});
  ASSERT_GT(mapper::save_map_cache_file(store), 0u);

  for (const bool dedup : {false, true}) {
    for (const bool warm : {false, true}) {
      for (const int jobs : {1, 8}) {
        cache.clear();
        if (warm) {
          ASSERT_GT(mapper::load_map_cache_file(store), 0u);
        }
        SweepOptions options;
        options.jobs = jobs;
        if (dedup) options.point_key = point_key;
        const SweepResult got =
            run_sweep(grid, metrics2(), evaluate, options);
        SCOPED_TRACE("dedup=" + std::to_string(dedup) +
                     " warm=" + std::to_string(warm) +
                     " jobs=" + std::to_string(jobs));
        expect_rows_identical(got.rows(), reference.rows());
      }
    }
  }
  std::remove(store.c_str());
  cache.clear();
  cache.set_enabled(was_enabled);
}

}  // namespace
}  // namespace uld3d::dse
