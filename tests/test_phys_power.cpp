#include "uld3d/phys/power.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

TEST(Power, TotalsSumComponents) {
  PowerModel m;
  m.add({"a", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 100, 100), 3.0});
  m.add({"b", tech::TierKind::kRram, Rect::at(0, 0, 100, 100), 1.5});
  EXPECT_DOUBLE_EQ(m.total_mw(), 4.5);
  EXPECT_DOUBLE_EQ(m.tier_mw(tech::TierKind::kSiCmosFeol), 3.0);
  EXPECT_DOUBLE_EQ(m.tier_mw(tech::TierKind::kRram), 1.5);
  EXPECT_DOUBLE_EQ(m.tier_mw(tech::TierKind::kCnfetFeol), 0.0);
}

TEST(Power, UpperTierFraction) {
  PowerModel m;
  m.add({"si", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 100, 100), 99.0});
  m.add({"rram", tech::TierKind::kRram, Rect::at(0, 0, 100, 100), 0.6});
  m.add({"cnfet", tech::TierKind::kCnfetFeol, Rect::at(0, 0, 100, 100), 0.4});
  EXPECT_NEAR(m.upper_tier_fraction(), 0.01, 1e-12);
}

TEST(Power, UpperTierFractionZeroWhenEmpty) {
  const PowerModel m;
  EXPECT_DOUBLE_EQ(m.upper_tier_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_mw(), 0.0);
}

TEST(Power, PerTierListsAllDeviceTiers) {
  PowerModel m;
  m.add({"a", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 10, 10), 1.0});
  const auto tiers = m.per_tier();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].tier, tech::TierKind::kSiCmosFeol);
  EXPECT_DOUBLE_EQ(tiers[0].power_mw, 1.0);
}

TEST(Power, PeakDensityUniformComponent) {
  PowerModel m;
  // 10 mW over 1 mm^2 -> 10 mW/mm^2 everywhere.
  m.add({"a", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 1000, 1000), 10.0});
  EXPECT_NEAR(m.peak_density_mw_per_mm2(1000.0, 1000.0, 250.0), 10.0, 1e-9);
}

TEST(Power, PeakDensityFindsHotSpot) {
  PowerModel m;
  m.add({"background", tech::TierKind::kSiCmosFeol,
         Rect::at(0, 0, 2000, 2000), 4.0});  // 1 mW/mm^2
  m.add({"hotspot", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 250, 250),
         5.0});  // +80 mW/mm^2 locally
  const double peak = m.peak_density_mw_per_mm2(2000.0, 2000.0, 250.0);
  EXPECT_NEAR(peak, 81.0, 1.0);
}

TEST(Power, StackedTiersAddIntoSameArealBin) {
  PowerModel m;
  m.add({"si", tech::TierKind::kSiCmosFeol, Rect::at(0, 0, 500, 500), 2.0});
  m.add({"rram", tech::TierKind::kRram, Rect::at(0, 0, 500, 500), 2.0});
  EXPECT_NEAR(m.peak_density_mw_per_mm2(500.0, 500.0, 250.0), 16.0, 1e-9);
}

TEST(Power, Validation) {
  PowerModel m;
  EXPECT_THROW(
      m.add({"bad", tech::TierKind::kSiCmosFeol, Rect{}, 1.0}),
      PreconditionError);
  EXPECT_THROW(m.add({"bad", tech::TierKind::kSiCmosFeol,
                      Rect::at(0, 0, 1, 1), -1.0}),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(m.peak_density_mw_per_mm2(0.0, 1.0)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::phys
