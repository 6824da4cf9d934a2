// Parallel-vs-serial determinism: the sweep and sensitivity engines must
// produce BIT-IDENTICAL results at every jobs count, under both error
// policies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "uld3d/dse/sensitivity.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::dse {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { parallel::set_jobs(0); }
  void TearDown() override { parallel::set_jobs(0); }
};

/// Bitwise double equality (NaN payloads included).
bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void expect_rows_identical(const SweepResult& ref, const SweepResult& got,
                           int jobs) {
  ASSERT_EQ(ref.rows().size(), got.rows().size()) << "jobs=" << jobs;
  for (std::size_t i = 0; i < ref.rows().size(); ++i) {
    const SweepRow& r = ref.rows()[i];
    const SweepRow& g = got.rows()[i];
    ASSERT_EQ(r.params.size(), g.params.size()) << "row " << i;
    for (std::size_t k = 0; k < r.params.size(); ++k) {
      EXPECT_TRUE(bits_equal(r.params[k], g.params[k]))
          << "row " << i << " param " << k << " jobs=" << jobs;
    }
    ASSERT_EQ(r.metrics.size(), g.metrics.size()) << "row " << i;
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
      EXPECT_TRUE(bits_equal(r.metrics[k], g.metrics[k]))
          << "row " << i << " metric " << k << " jobs=" << jobs;
    }
    ASSERT_EQ(r.failure.has_value(), g.failure.has_value())
        << "row " << i << " jobs=" << jobs;
    if (r.failure.has_value()) {
      EXPECT_EQ(r.failure->code, g.failure->code) << "row " << i;
      EXPECT_EQ(r.failure->to_string(), g.failure->to_string())
          << "row " << i << " jobs=" << jobs;
    }
  }
}

Grid grid20x20() {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 1; i <= 20; ++i) {
    a.push_back(static_cast<double>(i));
    b.push_back(static_cast<double>(i) * 0.5);
  }
  Grid g;
  g.axis("a", a).axis("b", b);
  return g;
}

/// Deterministic mix of successes, structured throws, and non-finite
/// metrics keyed purely on the point's parameters.
std::vector<double> spiky_evaluate(const std::vector<double>& p) {
  const auto ai = static_cast<std::int64_t>(p[0]);
  const auto bi = static_cast<std::int64_t>(p[1] * 2.0);
  if ((ai * 7 + bi) % 13 == 0) {
    throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "spiky throw")
                          .with("a", p[0])
                          .with("b", p[1]));
  }
  if ((ai + bi) % 17 == 0) {
    // Non-finite metric: the sweep records kNumericalError for the row.
    return {std::nan(""), p[0] + p[1]};
  }
  return {p[0] * p[1] + std::sin(p[0]) / (p[1] + 1.0), p[0] + p[1]};
}

TEST_F(ParallelDeterminismTest, SkipAndRecordRowsBitIdenticalAcrossJobs) {
  const Grid g = grid20x20();
  const SweepOptions serial{ErrorPolicy::kSkipAndRecord, /*jobs=*/1, {}, {}};
  const SweepResult ref = run_sweep(g, {"m0", "m1"}, spiky_evaluate, serial);
  ASSERT_GT(ref.failed_count(), 0u);  // the fixture must actually fail rows
  ASSERT_GT(ref.ok_count(), 0u);
  for (const int j : {2, 8}) {
    const SweepOptions opts{ErrorPolicy::kSkipAndRecord, j, {}, {}};
    expect_rows_identical(ref, run_sweep(g, {"m0", "m1"}, spiky_evaluate, opts),
                          j);
  }
}

TEST_F(ParallelDeterminismTest, GlobalJobsSettingIsBitIdenticalToo) {
  const Grid g = grid20x20();
  const SweepOptions serial{ErrorPolicy::kSkipAndRecord, /*jobs=*/1, {}, {}};
  const SweepResult ref = run_sweep(g, {"m0", "m1"}, spiky_evaluate, serial);
  parallel::set_jobs(8);  // options.jobs = 0 falls through to the global
  const SweepOptions global{ErrorPolicy::kSkipAndRecord, /*jobs=*/0, {}, {}};
  expect_rows_identical(ref, run_sweep(g, {"m0", "m1"}, spiky_evaluate, global),
                        8);
}

TEST_F(ParallelDeterminismTest, FailFastThrowsSameFirstFailureAcrossJobs) {
  const Grid g = grid20x20();
  std::string reference;
  for (const int j : {1, 2, 8}) {
    const SweepOptions opts{ErrorPolicy::kFailFast, j, {}, {}};
    try {
      (void)run_sweep(g, {"m0", "m1"}, spiky_evaluate, opts);
      FAIL() << "expected a failure at jobs=" << j;
    } catch (const StatusError& error) {
      if (j == 1) {
        reference = error.failure().to_string();
      } else {
        EXPECT_EQ(error.failure().to_string(), reference) << "jobs=" << j;
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST_F(ParallelDeterminismTest, SensitivityBitIdenticalAcrossJobs) {
  const std::vector<std::string> names = {"p0", "p1", "p2", "p3", "p4", "p5"};
  const std::vector<double> baseline = {2.0, 3.0, 5.0, 7.0, 11.0, 13.0};
  const auto objective = [&](const std::vector<double>& p) {
    // Perturbing p3 fails — the failed entry must be identical too.
    if (p[3] != baseline[3]) {
      throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "p3 is rigid"));
    }
    double v = 1.0;
    for (const double x : p) v += std::log(x) * x;
    return v;
  };
  const auto ref = analyze_sensitivity(names, baseline, objective, 0.05,
                                       ErrorPolicy::kSkipAndRecord, /*jobs=*/1);
  ASSERT_EQ(ref.size(), names.size());
  ASSERT_FALSE(ref[3].ok());
  for (const int j : {2, 8}) {
    const auto got = analyze_sensitivity(names, baseline, objective, 0.05,
                                         ErrorPolicy::kSkipAndRecord, j);
    ASSERT_EQ(got.size(), ref.size()) << "jobs=" << j;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].parameter, ref[i].parameter);
      EXPECT_TRUE(bits_equal(got[i].baseline_value, ref[i].baseline_value));
      EXPECT_TRUE(bits_equal(got[i].objective_minus, ref[i].objective_minus))
          << "param " << i << " jobs=" << j;
      EXPECT_TRUE(bits_equal(got[i].objective_plus, ref[i].objective_plus));
      EXPECT_TRUE(bits_equal(got[i].elasticity, ref[i].elasticity))
          << "param " << i << " jobs=" << j;
      ASSERT_EQ(got[i].failure.has_value(), ref[i].failure.has_value());
      if (ref[i].failure.has_value()) {
        EXPECT_EQ(got[i].failure->to_string(), ref[i].failure->to_string());
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, SensitivityFailFastRethrowsFirstParameter) {
  const std::vector<std::string> names = {"p0", "p1", "p2"};
  const std::vector<double> baseline = {2.0, 3.0, 5.0};
  const auto objective = [&](const std::vector<double>& p) {
    if (p[1] != baseline[1]) {
      throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "p1 is rigid"));
    }
    return p[0] + p[1] + p[2];
  };
  for (const int j : {1, 8}) {
    EXPECT_THROW((void)analyze_sensitivity(names, baseline, objective, 0.05,
                                           ErrorPolicy::kFailFast, j),
                 StatusError)
        << "jobs=" << j;
  }
}

TEST_F(ParallelDeterminismTest, FailureSummaryCapsAt20Points) {
  Grid g;
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) xs.push_back(static_cast<double>(i));
  g.axis("x", xs);
  const SweepResult result = run_sweep(
      g, {"m"},
      [](const std::vector<double>& p) -> std::vector<double> {
        throw StatusError(
            Failure(ErrorCode::kInfeasiblePoint, "always").with("x", p[0]));
      },
      {ErrorPolicy::kSkipAndRecord, /*jobs=*/1, {}, {}});
  EXPECT_EQ(result.failed_count(), 30u);
  const std::string summary = result.failure_summary();
  EXPECT_NE(summary.find("30 of 30"), std::string::npos);
  EXPECT_NE(summary.find("and 10 more"), std::string::npos);
  // Only the first 20 points are itemized.
  std::size_t lines = 0;
  for (const char ch : summary) lines += (ch == '\n') ? 1 : 0;
  EXPECT_LE(lines, 22u);  // header + 20 points + the "... and N more" tail
}

TEST_F(ParallelDeterminismTest, GridSizeOverflowThrowsNamingAxis) {
  Grid g;
  std::vector<double> huge(1u << 16, 1.0);
  g.axis("a", huge).axis("b", huge).axis("c", huge).axis("d", huge);
  ASSERT_EQ(g.axis_count(), 4u);  // 2^64 points: the product overflows
  try {
    (void)g.size();
    FAIL() << "expected StatusError(kInvalidArgument)";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.failure().code, ErrorCode::kInvalidArgument);
    ASSERT_FALSE(error.failure().context.empty());
    EXPECT_EQ(error.failure().context[0].first, "axis");
    EXPECT_EQ(error.failure().context[0].second, "d");
  }
}

}  // namespace
}  // namespace uld3d::dse
