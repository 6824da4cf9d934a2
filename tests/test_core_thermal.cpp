#include "uld3d/core/thermal.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

TEST(Thermal, EmptyStackHasNoRise) {
  const ThermalStack stack(2.0);
  EXPECT_DOUBLE_EQ(stack.temperature_rise_k(), 0.0);
  EXPECT_EQ(stack.tier_count(), 0u);
}

TEST(Thermal, SingleTierMatchesHandComputation) {
  // Eq. 17 with Y = 1: (R_1 + R_0) * P_1.
  ThermalStack stack(2.0);
  stack.add_tier({0.5, 4.0});
  EXPECT_DOUBLE_EQ(stack.temperature_rise_k(), (0.5 + 2.0) * 4.0);
}

TEST(Thermal, TwoTiersAccumulatePrefixResistance) {
  // Eq. 17: tier 1 sees R1+R0; tier 2 sees R1+R2+R0.
  ThermalStack stack(1.0);
  stack.add_tier({0.5, 2.0});
  stack.add_tier({0.25, 3.0});
  const double expected = (0.5 + 1.0) * 2.0 + (0.5 + 0.25 + 1.0) * 3.0;
  EXPECT_DOUBLE_EQ(stack.temperature_rise_k(), expected);
}

TEST(Thermal, RiseGrowsSuperlinearlyInUniformStacks) {
  // Quadratic growth: doubling Y more than doubles the rise.
  const auto rise = [](std::int64_t y) {
    ThermalStack stack(1.0);
    for (std::int64_t i = 0; i < y; ++i) stack.add_tier({0.5, 1.0});
    return stack.temperature_rise_k();
  };
  EXPECT_GT(rise(4), 2.0 * rise(2));
  EXPECT_GT(rise(8), 2.0 * rise(4));
}

TEST(Thermal, ZeroPowerTiersAddNothing) {
  ThermalStack stack(1.0);
  stack.add_tier({0.5, 2.0});
  const double before = stack.temperature_rise_k();
  stack.add_tier({10.0, 0.0});
  EXPECT_DOUBLE_EQ(stack.temperature_rise_k(), before);
}

TEST(Thermal, MaxTierPairsRespectsBudget) {
  const ThermalTier tier{0.5, 2.0};
  const std::int64_t y = ThermalStack::max_tier_pairs(1.0, tier, 60.0);
  ASSERT_GT(y, 0);
  // y tiers fit, y+1 do not.
  ThermalStack ok(1.0);
  for (std::int64_t i = 0; i < y; ++i) ok.add_tier(tier);
  EXPECT_LE(ok.temperature_rise_k(), 60.0);
  ok.add_tier(tier);
  EXPECT_GT(ok.temperature_rise_k(), 60.0);
}

TEST(Thermal, HotterTiersAllowFewerPairs) {
  const std::int64_t cool = ThermalStack::max_tier_pairs(1.0, {0.5, 1.0}, 60.0);
  const std::int64_t hot = ThermalStack::max_tier_pairs(1.0, {0.5, 4.0}, 60.0);
  EXPECT_GT(cool, hot);
}

TEST(Thermal, ImpossibleBudgetGivesZero) {
  EXPECT_EQ(ThermalStack::max_tier_pairs(100.0, {1.0, 10.0}, 60.0), 0);
}

TEST(Thermal, Validation) {
  EXPECT_THROW(ThermalStack(-1.0), PreconditionError);
  ThermalStack stack(1.0);
  EXPECT_THROW(stack.add_tier({-0.1, 1.0}), PreconditionError);
  EXPECT_THROW(stack.add_tier({0.1, -1.0}), PreconditionError);
  EXPECT_THROW(static_cast<void>(
                   ThermalStack::max_tier_pairs(1.0, {0.5, 1.0}, 0.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(
                   ThermalStack::max_tier_pairs(1.0, {0.5, 0.0}, 60.0)),
               PreconditionError);
}

class BudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweep, MaxPairsMonotoneInBudget) {
  const double budget = GetParam();
  const ThermalTier tier{0.4, 1.5};
  const std::int64_t y1 = ThermalStack::max_tier_pairs(1.0, tier, budget);
  const std::int64_t y2 = ThermalStack::max_tier_pairs(1.0, tier, 2.0 * budget);
  EXPECT_GE(y2, y1);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(10.0, 30.0, 60.0, 120.0));

}  // namespace
}  // namespace uld3d::core
