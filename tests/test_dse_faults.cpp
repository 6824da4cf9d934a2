// Fault-tolerance tests for the dse layer: per-point error isolation under
// ErrorPolicy::kSkipAndRecord, fail-fast preservation, and model-boundary
// errors raised by real inputs inside the evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "uld3d/core/edp_model.hpp"
#include "uld3d/core/thermal.hpp"
#include "uld3d/dse/sensitivity.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/util/check.hpp"

namespace uld3d::dse {
namespace {

Grid grid2x3() {
  Grid g;
  g.axis("a", {1.0, 2.0}).axis("b", {10.0, 20.0, 30.0});
  return g;
}

TEST(DseFaultTest, ThrowingPointIsRecordedAndSweepCompletes) {
  // Point (2, 20) throws; the other five must carry their exact metrics.
  const auto result = run_sweep(
      grid2x3(), {"product"}, [](const std::vector<double>& p) {
        if (p[0] == 2.0 && p[1] == 20.0) {
          throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "no fit")
                                .with("n_cs", std::int64_t{16}));
        }
        return std::vector<double>{p[0] * p[1]};
      });
  ASSERT_EQ(result.rows().size(), 6u);
  EXPECT_EQ(result.failed_count(), 1u);
  EXPECT_EQ(result.ok_count(), 5u);
  const auto failed = result.failed_rows();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 4u);  // row-major: (2, 20) is index 4
  const auto& row = result.rows()[4];
  EXPECT_FALSE(row.ok());
  EXPECT_EQ(row.failure->code, ErrorCode::kInfeasiblePoint);
  EXPECT_TRUE(std::isnan(row.metrics[0]));
  // Feasible points reproduce the plain numeric results.
  EXPECT_DOUBLE_EQ(result.rows()[0].metrics[0], 10.0);
  EXPECT_DOUBLE_EQ(result.rows()[5].metrics[0], 60.0);
}

TEST(DseFaultTest, NonFiniteMetricBecomesNumericalError) {
  const auto result = run_sweep(
      grid2x3(), {"m"}, [](const std::vector<double>& p) {
        if (p[0] == 1.0 && p[1] == 30.0) {
          return std::vector<double>{std::numeric_limits<double>::quiet_NaN()};
        }
        return std::vector<double>{1.0};
      });
  EXPECT_EQ(result.failed_count(), 1u);
  EXPECT_EQ(result.rows()[2].failure->code, ErrorCode::kNumericalError);
}

TEST(DseFaultTest, FailFastPreservesThrowingBehaviour) {
  const SweepOptions fail_fast{ErrorPolicy::kFailFast, 0, {}, {}};
  EXPECT_THROW(
      run_sweep(grid2x3(), {"m"},
                [](const std::vector<double>& p) -> std::vector<double> {
                  if (p[0] == 2.0) {
                    throw StatusError(
                        Failure(ErrorCode::kInfeasiblePoint, "no"));
                  }
                  return {1.0};
                },
                fail_fast),
      StatusError);
  EXPECT_THROW(
      run_sweep(grid2x3(), {"m"},
                [](const std::vector<double>&) -> std::vector<double> {
                  return {std::numeric_limits<double>::infinity()};
                },
                fail_fast),
      StatusError);
}

TEST(DseFaultTest, PreconditionErrorsClassifyAsInfeasible) {
  const auto result = run_sweep(
      grid2x3(), {"m"}, [](const std::vector<double>& p) {
        expects(p[1] < 30.0, "b too large for this design");
        return std::vector<double>{p[0]};
      });
  EXPECT_EQ(result.failed_count(), 2u);  // b = 30 at both a values
  for (const std::size_t i : result.failed_rows()) {
    EXPECT_EQ(result.rows()[i].failure->code, ErrorCode::kInfeasiblePoint);
  }
}

TEST(DseFaultTest, ParetoAndBestIgnoreFailedRows) {
  // Benefit grows with b, but the largest-b points all fail: the best and
  // the front must come from the surviving b = 10/20 columns.
  const auto result = run_sweep(
      grid2x3(), {"benefit", "cost"}, [](const std::vector<double>& p) {
        if (p[1] == 30.0) {
          throw StatusError(Failure(ErrorCode::kThermalLimit, "too hot"));
        }
        return std::vector<double>{p[0] * p[1], p[0]};
      });
  const std::size_t best = result.best("benefit");
  EXPECT_TRUE(result.rows()[best].ok());
  EXPECT_DOUBLE_EQ(result.rows()[best].metrics[0], 40.0);  // 2 * 20
  for (const std::size_t i : result.pareto_front("benefit", "cost")) {
    EXPECT_TRUE(result.rows()[i].ok());
  }
}

TEST(DseFaultTest, BestThrowsWhenEveryPointFailed) {
  const auto result =
      run_sweep(grid2x3(), {"m"},
                [](const std::vector<double>&) -> std::vector<double> {
                  throw StatusError(Failure(ErrorCode::kThermalLimit, "hot"));
                });
  EXPECT_EQ(result.failed_count(), 6u);
  EXPECT_TRUE(result.pareto_front("m", "m").empty());
  try {
    (void)result.best("m");
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInfeasiblePoint);
  }
}

TEST(DseFaultTest, FailureSummaryNamesPointsAndReasons) {
  const auto result = run_sweep(
      grid2x3(), {"m"}, [](const std::vector<double>& p) {
        if (p[0] == 2.0 && p[1] == 10.0) {
          throw StatusError(
              Failure(ErrorCode::kThermalLimit, "rise over budget"));
        }
        return std::vector<double>{p[0]};
      });
  const std::string summary = result.failure_summary();
  EXPECT_NE(summary.find("1 of 6 design points failed"), std::string::npos);
  EXPECT_NE(summary.find("a=2"), std::string::npos);
  EXPECT_NE(summary.find("b=10"), std::string::npos);
  EXPECT_NE(summary.find("kThermalLimit"), std::string::npos);
  EXPECT_NE(summary.find("rise over budget"), std::string::npos);
  // All-ok sweeps summarize to nothing.
  const auto ok = run_sweep(grid2x3(), {"m"}, [](const std::vector<double>&) {
    return std::vector<double>{1.0};
  });
  EXPECT_TRUE(ok.failure_summary().empty());
}

TEST(DseFaultTest, ToTableMarksFailedRows) {
  const auto result = run_sweep(
      grid2x3(), {"m"}, [](const std::vector<double>& p) {
        if (p[0] == 2.0 && p[1] == 30.0) {
          throw StatusError(Failure(ErrorCode::kNumericalError, "nan"));
        }
        return std::vector<double>{p[0]};
      });
  const std::string table = result.to_table().to_string();
  EXPECT_NE(table.find("status"), std::string::npos);
  EXPECT_NE(table.find("kNumericalError"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
}

TEST(DseFaultTest, WrongMetricCountAbortsUnderEveryPolicy) {
  EXPECT_THROW(run_sweep(grid2x3(), {"one", "two"},
                         [](const std::vector<double>&) {
                           return std::vector<double>{0.0};
                         }),
               PreconditionError);
}

TEST(DseFaultTest, ModelNumericalErrorPropagatesThroughEvaluator) {
  // The EDP model's finiteness guard fires on a real input: at x = 3 a
  // denormal 2D bandwidth overflows T_2D to +inf.  The sweep evaluator
  // calls into the model, so the guard's StatusError surfaces as a failed
  // row, not a dead sweep.
  core::WorkloadPoint w;
  w.f0_ops = 1.0e6;
  w.d0_bits = 1.0e6;
  w.max_partitions = 8;
  core::Chip2d c2;
  c2.bandwidth_bits_per_cycle = 64.0;
  c2.peak_ops_per_cycle = 256.0;
  c2.alpha_pj_per_bit = 1.0;
  c2.compute_pj_per_op = 0.1;
  core::Chip3d c3;
  c3.parallel_cs = 4;
  c3.bandwidth_bits_per_cycle = 512.0;
  c3.alpha_pj_per_bit = 0.5;
  Grid g;
  g.axis("x", {1.0, 2.0, 3.0, 4.0});
  const auto result = run_sweep(g, {"edp"}, [&](const std::vector<double>& p) {
    core::Chip2d chip = c2;
    if (p[0] == 3.0) chip.bandwidth_bits_per_cycle = 1.0e-320;
    return std::vector<double>{core::evaluate_edp(w, chip, c3).edp_benefit};
  });
  EXPECT_EQ(result.failed_count(), 1u);
  EXPECT_EQ(result.failed_rows()[0], 2u);
  EXPECT_EQ(result.rows()[2].failure->code, ErrorCode::kNumericalError);
}

TEST(DseFaultTest, ThermalBudgetViolationIsRecordedMidSweep) {
  // Sweep tier count; tall stacks trip require_within_budget -> recorded.
  Grid g;
  g.axis("tiers", {1.0, 2.0, 3.0, 4.0, 5.0});
  const auto result = run_sweep(g, {"rise_k"}, [](const std::vector<double>& p) {
    core::ThermalStack stack(0.5);
    for (int t = 0; t < static_cast<int>(p[0]); ++t) {
      stack.add_tier({0.2, 20.0});
    }
    return std::vector<double>{stack.require_within_budget(60.0)};
  });
  EXPECT_GT(result.failed_count(), 0u);
  EXPECT_LT(result.failed_count(), 5u);  // short stacks stay feasible
  for (const std::size_t i : result.failed_rows()) {
    EXPECT_EQ(result.rows()[i].failure->code, ErrorCode::kThermalLimit);
  }
  // Failed rows are exactly the tall tail of the axis.
  EXPECT_TRUE(result.rows()[0].ok());
  EXPECT_FALSE(result.rows()[4].ok());
}

TEST(DseFaultTest, SensitivitySkipsAndRecordsFailedParameters) {
  const auto results = analyze_sensitivity(
      {"good", "bad"}, {2.0, 3.0},
      [](const std::vector<double>& p) {
        if (p[1] != 3.0) {  // perturbing "bad" fails
          throw StatusError(Failure(ErrorCode::kInfeasiblePoint, "no"));
        }
        return p[0];
      });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_NEAR(results[0].elasticity, 1.0, 1e-9);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].failure->code, ErrorCode::kInfeasiblePoint);
  EXPECT_TRUE(std::isnan(results[1].elasticity));
  // The table renders failed rows at the bottom with their code.
  const std::string table = sensitivity_table(results).to_string();
  EXPECT_NE(table.find("kInfeasiblePoint"), std::string::npos);
  EXPECT_LT(table.find("good"), table.find("bad"));
}

TEST(DseFaultTest, SensitivityFailFastRethrows) {
  EXPECT_THROW(
      analyze_sensitivity(
          {"x"}, {1.0},
          [](const std::vector<double>& p) {
            if (p[0] != 1.0) {
              throw StatusError(Failure(ErrorCode::kNumericalError, "nan"));
            }
            return p[0];
          },
          0.05, ErrorPolicy::kFailFast),
      StatusError);
}

TEST(DseFaultTest, SensitivityNonFiniteObjectiveIsRecorded) {
  const auto results = analyze_sensitivity(
      {"x"}, {2.0}, [](const std::vector<double>& p) {
        return p[0] == 2.0 ? 1.0 : std::numeric_limits<double>::infinity();
      });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].failure->code, ErrorCode::kNumericalError);
}

}  // namespace
}  // namespace uld3d::dse
