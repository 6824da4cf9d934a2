#include "uld3d/tech/node_scaling.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::tech {
namespace {

TEST(NodeScaling, FactorsFollowClassicRules) {
  const NodeScaling s = NodeScaling::to(65.0);
  EXPECT_DOUBLE_EQ(s.node_nm, 65.0);
  EXPECT_DOUBLE_EQ(s.area_scale, 0.25);
  EXPECT_DOUBLE_EQ(s.energy_scale, 0.5);
  EXPECT_DOUBLE_EQ(s.delay_scale, 0.5);
}

TEST(NodeScaling, IdentityAt130) {
  const NodeScaling s = NodeScaling::to(130.0);
  EXPECT_DOUBLE_EQ(s.area_scale, 1.0);
  EXPECT_DOUBLE_EQ(s.energy_scale, 1.0);
}

TEST(NodeScaling, PdkProjectionScalesEverythingTogether) {
  const auto base = FoundryM3dPdk::make_130nm();
  const auto scaled = scale_pdk_to_node(base, 65.0);
  EXPECT_DOUBLE_EQ(scaled.node().feature_nm, 65.0);
  // Bit area shrinks quadratically (F^2-denominated cell).
  EXPECT_NEAR(scaled.rram_bit_area_um2() / base.rram_bit_area_um2(), 0.25,
              1e-9);
  // Access energy linearly.
  EXPECT_NEAR(scaled.rram().read_energy_pj_per_bit /
                  base.rram().read_energy_pj_per_bit,
              0.5, 1e-9);
  // Target clock doubles.
  EXPECT_NEAR(scaled.node().target_frequency_mhz /
                  base.node().target_frequency_mhz,
              2.0, 1e-9);
  // ILV pitch tracks the metal stack.
  EXPECT_NEAR(scaled.ilv().pitch_nm / base.ilv().pitch_nm, 0.5, 1e-9);
}

TEST(NodeScaling, LibrariesScaleWithTheNode) {
  const auto base = FoundryM3dPdk::make_130nm();
  const auto scaled = scale_pdk_to_node(base, 65.0);
  EXPECT_NEAR(scaled.si_library().gate_area_um2() /
                  base.si_library().gate_area_um2(),
              0.25, 1e-9);
  EXPECT_NEAR(scaled.si_library().gate_energy_pj() /
                  base.si_library().gate_energy_pj(),
              0.5, 1e-9);
}

TEST(NodeScaling, GammaIsNodeInvariant) {
  // The paper's Eq.-2 driver must survive node projection: both the cell
  // array and the logic shrink quadratically.
  const auto base = FoundryM3dPdk::make_130nm();
  const auto scaled = scale_pdk_to_node(base, 28.0);
  const double capacity = 64.0 * 8.0 * 1024.0 * 1024.0;
  const double cells_ratio =
      scaled.rram_macro(capacity, 8, false).cell_array_area_um2 /
      base.rram_macro(capacity, 8, false).cell_array_area_um2;
  const double logic_ratio = scaled.si_library().gate_area_um2() /
                             base.si_library().gate_area_um2();
  EXPECT_NEAR(cells_ratio, logic_ratio, 1e-9);
}

TEST(NodeScaling, ViaPitchCaseTwoSurvivesProjection) {
  // At every node the via-limited area stays just below the FET-limited
  // area (both scale with F^2), preserving the Obs.-8 crossover.
  const auto base = FoundryM3dPdk::make_130nm();
  for (const double node : {65.0, 28.0, 7.0}) {
    const auto scaled = scale_pdk_to_node(base, node);
    EXPECT_DOUBLE_EQ(scaled.rram_bit_area_m3d_um2(),
                     scaled.rram_bit_area_um2())
        << node;
    EXPECT_GT(scaled.with_ilv_pitch_scale(1.6).rram_bit_area_m3d_um2(),
              scaled.rram_bit_area_um2())
        << node;
  }
}

TEST(NodeScaling, RejectsNonsenseNodes) {
  EXPECT_THROW(static_cast<void>(NodeScaling::to(0.0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(NodeScaling::to(-5.0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(NodeScaling::to(2000.0)), PreconditionError);
}

}  // namespace
}  // namespace uld3d::tech
