#include "uld3d/tech/pdk.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::tech {
namespace {

TEST(Pdk, DefaultBitAreasMatchAtBaseline) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  // At delta = 1, beta = 1 the M3D cell is still FET-limited (the via floor
  // sits just below), so 2D and M3D bit areas coincide.
  EXPECT_DOUBLE_EQ(pdk.rram_bit_area_um2(), pdk.rram_bit_area_m3d_um2());
}

TEST(Pdk, BitAreaMatchesCellGeometry) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const double f_um = units::nm_to_um(pdk.node().feature_nm);
  const double expected =
      pdk.rram().cell_area_f2 * f_um * f_um / pdk.rram().bits_per_cell;
  EXPECT_NEAR(pdk.rram_bit_area_um2(), expected, 1e-12);
}

TEST(Pdk, FetWidthRelaxationGrowsM3dCellOnly) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const auto relaxed = pdk.with_fet_width_relaxation(2.0);
  EXPECT_DOUBLE_EQ(relaxed.rram_bit_area_um2(), pdk.rram_bit_area_um2());
  EXPECT_NEAR(relaxed.rram_bit_area_m3d_um2(), 2.0 * pdk.rram_bit_area_m3d_um2(),
              1e-12);
}

TEST(Pdk, SmallViaPitchIncreaseIsFree) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  // The default is ~80% via-limited, so a 1.1x pitch stays FET-limited.
  const auto scaled = pdk.with_ilv_pitch_scale(1.1);
  EXPECT_DOUBLE_EQ(scaled.rram_bit_area_m3d_um2(), pdk.rram_bit_area_m3d_um2());
}

TEST(Pdk, LargeViaPitchBecomesQuadratic) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const auto a = pdk.with_ilv_pitch_scale(2.0);
  const auto b = pdk.with_ilv_pitch_scale(4.0);
  // Once via-limited, cell area scales as beta^2.
  EXPECT_NEAR(b.rram_bit_area_m3d_um2() / a.rram_bit_area_m3d_um2(), 4.0, 1e-9);
  // And only the M3D cell grows; the 2D cell has no ILVs.
  EXPECT_DOUBLE_EQ(b.rram_bit_area_um2(), pdk.rram_bit_area_um2());
}

TEST(Pdk, ViaLimitCrossoverBetween13And16) {
  // Observation 8's calibration target: benefits unchanged at 1.3x but the
  // via floor binds before 1.6x.
  const auto pdk = FoundryM3dPdk::make_130nm();
  const double at_10 = pdk.rram_bit_area_m3d_um2();
  EXPECT_GT(pdk.with_ilv_pitch_scale(1.6).rram_bit_area_m3d_um2(), at_10);
}

TEST(Pdk, MacroGeometryScalesWithCapacity) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const auto small = pdk.rram_macro(units::mb_to_bits(16.0), 1, false);
  const auto large = pdk.rram_macro(units::mb_to_bits(64.0), 1, false);
  EXPECT_NEAR(large.cell_array_area_um2 / small.cell_array_area_um2, 4.0, 1e-9);
  EXPECT_GT(large.periph_area_um2, small.periph_area_um2);
  EXPECT_DOUBLE_EQ(large.total_area_um2,
                   large.cell_array_area_um2 + large.periph_area_um2);
}

TEST(Pdk, MoreBanksMorePeripheralArea) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const double cap = units::mb_to_bits(64.0);
  const auto one = pdk.rram_macro(cap, 1, false);
  const auto eight = pdk.rram_macro(cap, 8, false);
  EXPECT_DOUBLE_EQ(one.cell_array_area_um2, eight.cell_array_area_um2);
  EXPECT_GT(eight.periph_area_um2, one.periph_area_um2);
}

TEST(Pdk, CaseStudyCapacityYieldsPaperScaleArrayArea) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const auto macro = pdk.rram_macro(units::mb_to_bits(64.0), 8, false);
  // ~48 mm^2 of cells at 130 nm with multi-bit 1T8R storage.
  EXPECT_GT(macro.cell_array_area_um2, 40.0e6);
  EXPECT_LT(macro.cell_array_area_um2, 56.0e6);
}

TEST(Pdk, BandwidthMatchesRowWidthAtRelaxedClock) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  // 25 ns sense fits in the 50 ns cycle at 20 MHz: one row per cycle.
  EXPECT_DOUBLE_EQ(pdk.bank_bandwidth_bits_per_cycle(),
                   pdk.rram().bank_read_bits);
  EXPECT_DOUBLE_EQ(pdk.clock_period_ns(), 50.0);
}

TEST(Pdk, FasterClockReducesPerCycleBandwidth) {
  NodeParams node;
  node.target_frequency_mhz = 100.0;  // 10 ns period < 25 ns sense
  const FoundryM3dPdk pdk(node, RramParams{}, CnfetParams{}, IlvParams{});
  EXPECT_LT(pdk.bank_bandwidth_bits_per_cycle(), pdk.rram().bank_read_bits);
}

TEST(Pdk, IdleEnergyScalesWithCapacity) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  const double e64 = pdk.rram_idle_energy_pj_per_cycle(units::mb_to_bits(64.0));
  const double e128 = pdk.rram_idle_energy_pj_per_cycle(units::mb_to_bits(128.0));
  EXPECT_NEAR(e128 / e64, 2.0, 1e-9);
  EXPECT_GT(e64, 0.0);
}

TEST(Pdk, InvalidParametersThrow) {
  const auto pdk = FoundryM3dPdk::make_130nm();
  EXPECT_THROW(pdk.with_fet_width_relaxation(0.9), PreconditionError);
  EXPECT_THROW(pdk.with_ilv_pitch_scale(0.0), PreconditionError);
  EXPECT_THROW(static_cast<void>(pdk.rram_macro(0.0, 1, false)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(pdk.rram_macro(100.0, 0, false)),
               PreconditionError);
}

class FetWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(FetWidthSweep, M3dBitAreaScalesLinearlyOnceFetLimited) {
  const double delta = GetParam();
  const auto pdk = FoundryM3dPdk::make_130nm();
  const auto relaxed = pdk.with_fet_width_relaxation(delta);
  EXPECT_NEAR(relaxed.rram_bit_area_m3d_um2(),
              delta * pdk.rram_bit_area_m3d_um2(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Deltas, FetWidthSweep,
                         ::testing::Values(1.0, 1.2, 1.6, 2.0, 2.5, 3.0));

}  // namespace
}  // namespace uld3d::tech
