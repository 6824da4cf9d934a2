#include "uld3d/phys/floorplan.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

Floorplan make_fp(double side = 4000.0) {
  return Floorplan(side, side, tech::TierStack::make_m3d_130nm(), 100.0);
}

TEST(Floorplan, StartsEmpty) {
  const Floorplan fp = make_fp();
  EXPECT_DOUBLE_EQ(fp.utilization(tech::TierKind::kSiCmosFeol), 0.0);
  EXPECT_DOUBLE_EQ(fp.free_area_um2(tech::TierKind::kSiCmosFeol),
                   4000.0 * 4000.0);
  EXPECT_TRUE(fp.macros().empty());
}

TEST(Floorplan, M3dArrayLeavesSiFree) {
  Floorplan fp = make_fp();
  const Macro array = Macro::rram_array_m3d("a", 1.0e6);
  ASSERT_TRUE(fp.place_macro(array, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(fp.utilization(tech::TierKind::kSiCmosFeol), 0.0);
  EXPECT_GT(fp.utilization(tech::TierKind::kRram), 0.0);
  EXPECT_GT(fp.utilization(tech::TierKind::kCnfetFeol), 0.0);
}

TEST(Floorplan, TwoDArrayBlocksSi) {
  Floorplan fp = make_fp();
  const Macro array = Macro::rram_array_2d("a", 1.0e6);
  ASSERT_TRUE(fp.place_macro(array, 0.0, 0.0));
  EXPECT_GT(fp.utilization(tech::TierKind::kSiCmosFeol), 0.0);
  EXPECT_DOUBLE_EQ(fp.utilization(tech::TierKind::kCnfetFeol), 0.0);
}

TEST(Floorplan, RejectsOutOfDiePlacement) {
  Floorplan fp = make_fp();
  const Macro array = Macro::rram_array_2d("a", 1.0e6);
  EXPECT_FALSE(fp.place_macro(array, 3500.0, 0.0));  // spills off the right
  EXPECT_TRUE(fp.macros().empty());
}

TEST(Floorplan, RejectsCollisionOnSharedTier) {
  Floorplan fp = make_fp();
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("a", 1.0e6), 0.0, 0.0));
  EXPECT_FALSE(fp.place_macro(Macro::rram_array_2d("b", 1.0e6), 100.0, 100.0));
  EXPECT_EQ(fp.macros().size(), 1u);
}

TEST(Floorplan, DifferentTiersDoNotCollide) {
  Floorplan fp = make_fp();
  // A peripheral (Si only) can sit under an M3D array (RRAM+CNFET only).
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_m3d("a", 1.0e6), 0.0, 0.0));
  EXPECT_TRUE(fp.place_macro(Macro::rram_periph("p", 1.0e5), 0.0, 0.0));
}

TEST(Floorplan, PlaceAnywhereScansForSpace) {
  Floorplan fp = make_fp();
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("a", 4.0e6), 0.0, 0.0));
  const auto rect = fp.place_macro_anywhere(Macro::rram_array_2d("b", 4.0e6));
  ASSERT_TRUE(rect.has_value());
  EXPECT_FALSE(rect->overlaps(fp.macros()[0].rect));
}

TEST(Floorplan, PlaceAnywhereFailsWhenFull) {
  Floorplan fp = make_fp(1000.0);
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("a", 1.0e6), 0.0, 0.0));
  EXPECT_FALSE(
      fp.place_macro_anywhere(Macro::rram_array_2d("b", 2.5e5)).has_value());
}

TEST(Floorplan, AllocateRegionMarksOnlyThatTier) {
  Floorplan fp = make_fp();
  const Rect region = Rect::at(0, 0, 1000, 1000);
  ASSERT_TRUE(fp.allocate_region(tech::TierKind::kSiCmosFeol, region));
  EXPECT_FALSE(fp.region_free(tech::TierKind::kSiCmosFeol, region));
  EXPECT_TRUE(fp.region_free(tech::TierKind::kCnfetFeol, region));
  EXPECT_FALSE(fp.allocate_region(tech::TierKind::kSiCmosFeol, region));
}

TEST(Floorplan, FreeAreaTracksAllocations) {
  Floorplan fp = make_fp(2000.0);
  const double before = fp.free_area_um2(tech::TierKind::kSiCmosFeol);
  ASSERT_TRUE(fp.allocate_region(tech::TierKind::kSiCmosFeol,
                                 Rect::at(0, 0, 1000, 1000)));
  EXPECT_DOUBLE_EQ(fp.free_area_um2(tech::TierKind::kSiCmosFeol),
                   before - 1.0e6);
}

TEST(Floorplan, MetalTiersHaveNoPlacementGrid) {
  const Floorplan fp = make_fp();
  EXPECT_THROW(fp.free_area_um2(tech::TierKind::kBeolMetal),
               PreconditionError);
}

TEST(Floorplan, ValidatesConstruction) {
  const auto stack = tech::TierStack::make_m3d_130nm();
  EXPECT_THROW(Floorplan(0.0, 100.0, stack), PreconditionError);
  EXPECT_THROW(Floorplan(100.0, 100.0, stack, 0.0), PreconditionError);
  // 2^32 bins a side: the 64-bit bin count wraps to 0.
  EXPECT_THROW(Floorplan(429496729600.0, 429496729600.0, stack, 100.0),
               PreconditionError);
  // 3.037e9 bins a side: the bin count wraps negative.
  EXPECT_THROW(Floorplan(3.037e11, 3.037e11, stack, 100.0), PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Floorplan(inf, 100.0, stack), PreconditionError);
  EXPECT_THROW(Floorplan(100.0, 100.0, stack, inf), PreconditionError);
  // Each side fits, the product does not.
  EXPECT_THROW(Floorplan(1.0e6, 1.0e6, stack, 100.0), PreconditionError);
}

}  // namespace
}  // namespace uld3d::phys
