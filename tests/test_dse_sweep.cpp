#include "uld3d/dse/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "uld3d/util/check.hpp"

namespace uld3d::dse {
namespace {

Grid grid2x3() {
  Grid g;
  g.axis("a", {1.0, 2.0}).axis("b", {10.0, 20.0, 30.0});
  return g;
}

TEST(Grid, SizeIsProduct) {
  EXPECT_EQ(grid2x3().size(), 6u);
  EXPECT_EQ(Grid{}.size(), 0u);
}

TEST(Grid, RowMajorEnumeration) {
  const Grid g = grid2x3();
  // Last axis varies fastest.
  EXPECT_EQ(g.point(0), (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(g.point(1), (std::vector<double>{1.0, 20.0}));
  EXPECT_EQ(g.point(2), (std::vector<double>{1.0, 30.0}));
  EXPECT_EQ(g.point(3), (std::vector<double>{2.0, 10.0}));
  EXPECT_EQ(g.point(5), (std::vector<double>{2.0, 30.0}));
}

TEST(Grid, Validation) {
  Grid g;
  EXPECT_THROW(g.axis("x", {}), PreconditionError);
  g.axis("x", {1.0});
  EXPECT_THROW(g.axis("x", {2.0}), PreconditionError);  // duplicate name
  EXPECT_THROW(g.point(1), PreconditionError);
}

TEST(Sweep, EvaluatesEveryPoint) {
  const Grid g = grid2x3();
  // Pool workers evaluate points concurrently once ULD3D_JOBS > 1.
  std::atomic<int> calls{0};
  const auto result = run_sweep(g, {"product", "sum"},
                                [&](const std::vector<double>& p) {
                                  ++calls;
                                  return std::vector<double>{p[0] * p[1],
                                                             p[0] + p[1]};
                                });
  EXPECT_EQ(calls, 6);
  ASSERT_EQ(result.rows().size(), 6u);
  EXPECT_EQ(result.param_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(result.rows()[5].metrics[0], 60.0);
  EXPECT_DOUBLE_EQ(result.rows()[5].metrics[1], 32.0);
}

TEST(Sweep, BestFindsMaximum) {
  const auto result =
      run_sweep(grid2x3(), {"product"}, [](const std::vector<double>& p) {
        return std::vector<double>{p[0] * p[1]};
      });
  EXPECT_EQ(result.best("product"), 5u);  // 2 * 30
}

TEST(Sweep, MetricIndexValidates) {
  const auto result =
      run_sweep(grid2x3(), {"m"}, [](const std::vector<double>&) {
        return std::vector<double>{0.0};
      });
  EXPECT_EQ(result.metric_index("m"), 0u);
  EXPECT_THROW(static_cast<void>(result.metric_index("nope")),
               PreconditionError);
}

TEST(Sweep, WrongMetricCountRejected) {
  EXPECT_THROW(
      run_sweep(grid2x3(), {"one", "two"},
                [](const std::vector<double>&) {
                  return std::vector<double>{0.0};  // only one value
                }),
      PreconditionError);
}

TEST(Sweep, ParetoFrontMaximizesBenefitPerCost) {
  // cost = a, benefit = a*b: at each cost level the best b wins; front must
  // be strictly improving in benefit as cost rises.
  const auto result = run_sweep(
      grid2x3(), {"benefit", "cost"}, [](const std::vector<double>& p) {
        return std::vector<double>{p[0] * p[1], p[0]};
      });
  const auto front = result.pareto_front("benefit", "cost");
  ASSERT_EQ(front.size(), 2u);
  EXPECT_DOUBLE_EQ(result.rows()[front[0]].metrics[0], 30.0);  // cost 1
  EXPECT_DOUBLE_EQ(result.rows()[front[1]].metrics[0], 60.0);  // cost 2
}

TEST(Sweep, ParetoDropsDominatedPoints) {
  Grid g;
  g.axis("x", {1.0, 2.0, 3.0});
  // Benefit DECREASES with cost: only the cheapest point survives.
  const auto result =
      run_sweep(g, {"benefit", "cost"}, [](const std::vector<double>& p) {
        return std::vector<double>{10.0 - p[0], p[0]};
      });
  EXPECT_EQ(result.pareto_front("benefit", "cost").size(), 1u);
}

TEST(Sweep, TableHasParamsThenMetrics) {
  const auto result =
      run_sweep(grid2x3(), {"m"}, [](const std::vector<double>& p) {
        return std::vector<double>{p[0]};
      });
  const Table t = result.to_table();
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a"), std::string::npos);
  EXPECT_NE(s.find("| m"), std::string::npos);
  EXPECT_EQ(t.row_count(), 6u);
}

TEST(Sweep, EmptyGridYieldsEmptyResultWithMetricNames) {
  // Regression: an empty grid must not abort the caller — it returns an
  // empty SweepResult whose metric names survive for downstream code.
  const Grid empty;
  int calls = 0;
  const auto result = run_sweep(empty, {"edp", "speedup"},
                                [&](const std::vector<double>&) {
                                  ++calls;
                                  return std::vector<double>{0.0, 0.0};
                                });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(result.rows().empty());
  EXPECT_EQ(result.metric_names(),
            (std::vector<std::string>{"edp", "speedup"}));
  EXPECT_TRUE(result.param_names().empty());
  EXPECT_EQ(result.metric_index("speedup"), 1u);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_TRUE(result.pareto_front("edp", "speedup").empty());
  EXPECT_TRUE(result.failure_summary().empty());
  EXPECT_EQ(result.to_table().row_count(), 0u);
  EXPECT_THROW(static_cast<void>(result.best("edp")), PreconditionError);
}

TEST(Sweep, EmptyMetricsRejected) {
  EXPECT_THROW(run_sweep(grid2x3(), {},
                         [](const std::vector<double>&) {
                           return std::vector<double>{};
                         }),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::dse
