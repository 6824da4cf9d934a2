#include "uld3d/tech/beol_device.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::tech {
namespace {

TEST(BeolDevice, CatalogueHasFiveCandidates) {
  const auto all = beol_technology_catalogue();
  ASSERT_EQ(all.size(), 5u);
  for (const auto& d : all) {
    EXPECT_FALSE(d.name.empty());
    EXPECT_GT(d.drive_ratio_vs_si, 0.0) << d.name;
    EXPECT_LE(d.drive_ratio_vs_si, 1.0) << d.name;
  }
}

TEST(BeolDevice, IsoDriveWidthIsInverseDrive) {
  const auto cnfet = make_cnfet();
  EXPECT_NEAR(cnfet.width_relaxation_for_iso_drive(),
              1.0 / cnfet.drive_ratio_vs_si, 1e-12);
  const auto igzo = make_igzo();
  EXPECT_NEAR(igzo.width_relaxation_for_iso_drive(), 4.0, 1e-12);
}

TEST(BeolDevice, StrongDeviceNeedsNoRelaxation) {
  BeolDeviceTechnology strong = make_cnfet();
  strong.drive_ratio_vs_si = 1.3;
  EXPECT_DOUBLE_EQ(strong.width_relaxation_for_iso_drive(), 1.0);
}

TEST(BeolDevice, BeolCompatibilityByTemperature) {
  EXPECT_TRUE(make_cnfet().beol_compatible());
  EXPECT_TRUE(make_igzo().beol_compatible());
  // CoolCube's ~500 C epitaxy exceeds the default 400 C budget.
  EXPECT_FALSE(make_ltps_si().beol_compatible());
  EXPECT_TRUE(make_ltps_si().beol_compatible(550.0));
}

TEST(BeolDevice, PdkSubstitutionAppliesDeviceParameters) {
  const auto base = FoundryM3dPdk::make_130nm();
  const auto device = make_2d_fet();
  const auto pdk = pdk_with_beol_device(base, device);
  EXPECT_DOUBLE_EQ(pdk.cnfet().drive_ratio_vs_si, device.drive_ratio_vs_si);
  EXPECT_DOUBLE_EQ(pdk.cnfet().width_relaxation,
                   device.width_relaxation_for_iso_drive());
  EXPECT_DOUBLE_EQ(pdk.cnfet().access_energy_ratio,
                   device.access_energy_ratio);
  // Only the upper-tier device changes; the RRAM and node are untouched.
  EXPECT_DOUBLE_EQ(pdk.rram_bit_area_um2(), base.rram_bit_area_um2());
}

TEST(BeolDevice, WeakerDevicesGrowTheM3dCell) {
  const auto base = FoundryM3dPdk::make_130nm();
  const double cnfet =
      pdk_with_beol_device(base, make_cnfet()).rram_bit_area_m3d_um2();
  const double igzo =
      pdk_with_beol_device(base, make_igzo()).rram_bit_area_m3d_um2();
  EXPECT_GT(igzo, 2.5 * cnfet);
}

TEST(BeolDevice, InvalidDriveRejected) {
  BeolDeviceTechnology bad = make_cnfet();
  bad.drive_ratio_vs_si = 0.0;
  EXPECT_THROW(static_cast<void>(bad.width_relaxation_for_iso_drive()),
               PreconditionError);
  EXPECT_THROW(pdk_with_beol_device(FoundryM3dPdk::make_130nm(), bad),
               PreconditionError);
}

class DriveOrdering : public ::testing::TestWithParam<int> {};

TEST_P(DriveOrdering, LowerDriveNeverShrinksM3dCell) {
  const auto all = beol_technology_catalogue();
  const auto base = FoundryM3dPdk::make_130nm();
  const auto& a = all[static_cast<std::size_t>(GetParam())];
  for (const auto& b : all) {
    if (b.drive_ratio_vs_si <= a.drive_ratio_vs_si) {
      EXPECT_GE(pdk_with_beol_device(base, b).rram_bit_area_m3d_um2(),
                pdk_with_beol_device(base, a).rram_bit_area_m3d_um2() - 1e-12)
          << a.name << " vs " << b.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogue, DriveOrdering, ::testing::Range(0, 5));

}  // namespace
}  // namespace uld3d::tech
