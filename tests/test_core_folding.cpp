#include "uld3d/core/folding.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

TEST(Folding, OneTierIsIdentity) {
  FoldingInputs in;
  in.tiers = 1;
  const FoldingBenefit b = evaluate_folding(in);
  EXPECT_DOUBLE_EQ(b.footprint_ratio, 1.0);
  EXPECT_DOUBLE_EQ(b.wirelength_ratio, 1.0);
  EXPECT_DOUBLE_EQ(b.energy_ratio, 1.0);
  EXPECT_DOUBLE_EQ(b.delay_ratio, 1.0);
  EXPECT_DOUBLE_EQ(b.edp_benefit, 1.0);
}

TEST(Folding, TwoTierBenefitInPaperRange) {
  // Paper Sec. I: folding approaches offer ~1.1-1.4x EDP [3-4].
  const FoldingBenefit b = evaluate_folding({});
  EXPECT_GT(b.edp_benefit, 1.1);
  EXPECT_LT(b.edp_benefit, 1.4);
  EXPECT_DOUBLE_EQ(b.footprint_ratio, 0.5);  // ~50% footprint reduction [3-4]
  EXPECT_NEAR(b.wirelength_ratio, 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Folding, FoldingFarBelowArchitecturalBenefits) {
  // The paper's core claim: folding alone cannot approach 5x+.
  for (const int tiers : {2, 3, 4, 8}) {
    FoldingInputs in;
    in.tiers = tiers;
    EXPECT_LT(evaluate_folding(in).edp_benefit, 2.0) << tiers;
  }
}

TEST(Folding, MoreTiersMonotonicallyBetter) {
  double previous = 1.0;
  for (const int tiers : {2, 3, 4}) {
    FoldingInputs in;
    in.tiers = tiers;
    const double edp = evaluate_folding(in).edp_benefit;
    EXPECT_GT(edp, previous);
    previous = edp;
  }
}

TEST(Folding, NoWireEnergyNoBenefitOnEnergySide) {
  FoldingInputs in;
  in.wire_energy_fraction = 0.0;
  in.buffer_energy_fraction = 0.0;
  const FoldingBenefit b = evaluate_folding(in);
  EXPECT_DOUBLE_EQ(b.energy_ratio, 1.0);
  EXPECT_LT(b.delay_ratio, 1.0);  // wires still speed up
}

TEST(Folding, WireDominatedDesignGainsMore) {
  FoldingInputs light;
  light.wire_energy_fraction = 0.1;
  light.wire_delay_fraction = 0.1;
  FoldingInputs heavy;
  heavy.wire_energy_fraction = 0.6;
  heavy.wire_delay_fraction = 0.6;
  EXPECT_GT(evaluate_folding(heavy).edp_benefit,
            evaluate_folding(light).edp_benefit);
}

TEST(Folding, Validation) {
  FoldingInputs bad;
  bad.tiers = 0;
  EXPECT_THROW(static_cast<void>(evaluate_folding(bad)), PreconditionError);
  FoldingInputs bad2;
  bad2.wire_energy_fraction = 1.0;
  EXPECT_THROW(static_cast<void>(evaluate_folding(bad2)), PreconditionError);
  FoldingInputs bad3;
  bad3.wire_energy_fraction = 0.7;
  bad3.buffer_energy_fraction = 0.4;  // sums past 1
  EXPECT_THROW(static_cast<void>(evaluate_folding(bad3)), PreconditionError);
}

}  // namespace
}  // namespace uld3d::core
