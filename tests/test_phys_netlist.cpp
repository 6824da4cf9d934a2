#include "uld3d/phys/netlist.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

tech::StdCellLibrary lib() { return tech::StdCellLibrary::make_si_cmos_130nm(); }

Netlist tiny() {
  Netlist n;
  const auto a = n.add_cell("u0", "NAND2_X1");
  const auto b = n.add_cell("u1", "FA_X1");
  const auto c = n.add_cell("u2", "DFF_X1");
  n.add_net("n0", {a, b});
  n.add_net("n1", {a, b, c});
  return n;
}

TEST(Netlist, CountsAndHistogram) {
  const Netlist n = tiny();
  EXPECT_EQ(n.cell_count(), 3u);
  EXPECT_EQ(n.net_count(), 2u);
  const auto hist = n.type_histogram();
  EXPECT_EQ(hist.at("NAND2_X1"), 1);
  EXPECT_EQ(hist.at("FA_X1"), 1);
  EXPECT_EQ(hist.at("DFF_X1"), 1);
}

TEST(Netlist, AreaLeakageAndGeRollUps) {
  const Netlist n = tiny();
  const auto l = lib();
  EXPECT_DOUBLE_EQ(n.area_um2(l), l.cell("NAND2_X1").area_um2 +
                                      l.cell("FA_X1").area_um2 +
                                      l.cell("DFF_X1").area_um2);
  EXPECT_GT(n.leakage_nw(l), 0.0);
  EXPECT_EQ(n.gate_equivalents(l), 1 + 6 + 6);
}

TEST(Netlist, UnknownTypeThrowsOnRollup) {
  Netlist n;
  n.add_cell("u0", "NOT_A_CELL");
  EXPECT_THROW(static_cast<void>(n.area_um2(lib())), PreconditionError);
}

TEST(Netlist, NetValidation) {
  Netlist n;
  const auto a = n.add_cell("u0", "INV_X1");
  EXPECT_THROW(n.add_net("bad", {a}), PreconditionError);        // 1 pin
  EXPECT_THROW(n.add_net("bad", {a, 99}), PreconditionError);    // unknown
  EXPECT_THROW(n.add_cell("u1", ""), PreconditionError);         // no type
}

TEST(Netlist, HpwlMatchesHandComputation) {
  const Netlist n = tiny();
  const std::vector<Point> pos = {{0.0, 0.0}, {10.0, 0.0}, {10.0, 5.0}};
  // n0: bbox 10x0 -> 10; n1: bbox 10x5 -> 15.
  EXPECT_DOUBLE_EQ(n.hpwl_um(pos), 25.0);
}

TEST(Netlist, HpwlRequiresAllPositions) {
  const Netlist n = tiny();
  EXPECT_THROW(static_cast<void>(n.hpwl_um({{0.0, 0.0}})), PreconditionError);
}

TEST(Netlist, RowMajorPlacementStaysInRegion) {
  Netlist n;
  for (int i = 0; i < 100; ++i) {
    n.add_cell("u" + std::to_string(i), "NAND2_X1");
  }
  const Rect region = Rect::at(100.0, 200.0, 120.0, 120.0);
  const auto pos = place_row_major(n, region, lib());
  ASSERT_EQ(pos.size(), 100u);
  for (const auto& p : pos) {
    EXPECT_GE(p.x, region.x0);
    EXPECT_GE(p.y, region.y0);
    EXPECT_LE(p.x, region.x1 + 1.0);
  }
  // Adjacent indices sit one pitch apart (same row).
  EXPECT_NEAR(pos[1].x - pos[0].x, pos[2].x - pos[1].x, 1e-9);
}

}  // namespace
}  // namespace uld3d::phys
