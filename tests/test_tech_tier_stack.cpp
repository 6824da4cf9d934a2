#include "uld3d/tech/tier_stack.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::tech {
namespace {

TEST(TierStack, M3dStackHasExpectedTiers) {
  const TierStack stack = TierStack::make_m3d_130nm();
  ASSERT_GE(stack.size(), 7u);
  EXPECT_EQ(stack.at(0).kind, TierKind::kSiCmosFeol);
  EXPECT_TRUE(stack.find(TierKind::kRram).has_value());
  EXPECT_TRUE(stack.find(TierKind::kCnfetFeol).has_value());
  // RRAM sits below the CNFET tier (Fig. 4a: selectors above the array).
  EXPECT_LT(*stack.find(TierKind::kRram), *stack.find(TierKind::kCnfetFeol));
}

TEST(TierStack, M3dAllowsCnfetPlacement) {
  const TierStack stack = TierStack::make_m3d_130nm();
  EXPECT_TRUE(stack.at(*stack.find(TierKind::kCnfetFeol)).placement_allowed);
  EXPECT_EQ(stack.placement_tier_count(), 3u);  // Si, RRAM, CNFET
}

TEST(TierStack, BaselineBlocksCnfetPlacementButKeepsRouting) {
  const TierStack stack = TierStack::make_2d_baseline_130nm();
  const auto idx = stack.find(TierKind::kCnfetFeol);
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(stack.at(*idx).placement_allowed);
  EXPECT_TRUE(stack.at(*idx).routing_allowed);  // Sec. II methodology
  EXPECT_EQ(stack.placement_tier_count(), 2u);
}

TEST(TierStack, MetalTiersRouteButDoNotPlace) {
  const TierStack stack = TierStack::make_m3d_130nm();
  for (const auto& tier : stack.tiers()) {
    if (tier.kind == TierKind::kBeolMetal) {
      EXPECT_FALSE(tier.placement_allowed) << tier.name;
      EXPECT_TRUE(tier.routing_allowed) << tier.name;
    }
  }
}

TEST(TierStack, FindMissingKindReturnsNullopt) {
  const TierStack empty;
  EXPECT_FALSE(empty.find(TierKind::kRram).has_value());
}

TEST(TierStack, AtOutOfRangeThrows) {
  const TierStack empty;
  EXPECT_THROW(static_cast<void>(empty.at(0)), PreconditionError);
}

TEST(TierStack, ThermalResistanceAccumulatesUpward) {
  const TierStack stack = TierStack::make_m3d_130nm();
  const double area = 50.0;  // mm^2
  double previous = 0.0;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    const double r = stack.thermal_resistance_to_sink(i, area);
    EXPECT_GT(r, previous);  // strictly increasing with height
    previous = r;
  }
}

TEST(TierStack, ThermalResistanceScalesInverselyWithArea) {
  const TierStack stack = TierStack::make_m3d_130nm();
  const double r_small = stack.thermal_resistance_to_sink(3, 10.0);
  const double r_large = stack.thermal_resistance_to_sink(3, 100.0);
  EXPECT_NEAR(r_small / r_large, 10.0, 1e-9);
}

TEST(TierStack, ThermalRejectsBadInputs) {
  const TierStack stack = TierStack::make_m3d_130nm();
  EXPECT_THROW(static_cast<void>(stack.thermal_resistance_to_sink(99, 10.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(stack.thermal_resistance_to_sink(0, 0.0)),
               PreconditionError);
}

TEST(TierStack, PushGrowsStack) {
  TierStack stack;
  stack.push({"X", TierKind::kBeolMetal, false, true, 100.0, 1.0});
  EXPECT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack.at(0).name, "X");
}

TEST(TierKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(TierKind::kSiCmosFeol), "SiCmosFeol");
  EXPECT_STREQ(to_string(TierKind::kBeolMetal), "BeolMetal");
  EXPECT_STREQ(to_string(TierKind::kRram), "Rram");
  EXPECT_STREQ(to_string(TierKind::kCnfetFeol), "CnfetFeol");
}

}  // namespace
}  // namespace uld3d::tech
