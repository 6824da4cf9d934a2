#include "uld3d/tech/std_cell_library.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::tech {
namespace {

TEST(StdCellLibrary, SiLibraryHasCoreCells) {
  const auto lib = StdCellLibrary::make_si_cmos_130nm();
  for (const char* name :
       {"INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1", "FA_X1", "BUF_X8"}) {
    EXPECT_TRUE(lib.has_cell(name)) << name;
  }
  EXPECT_FALSE(lib.has_cell("NONEXISTENT"));
}

TEST(StdCellLibrary, UnknownCellThrows) {
  const auto lib = StdCellLibrary::make_si_cmos_130nm();
  EXPECT_THROW(static_cast<void>(lib.cell("NOPE")), PreconditionError);
}

TEST(StdCellLibrary, GateMetricsArePositive) {
  const auto lib = StdCellLibrary::make_si_cmos_130nm();
  EXPECT_GT(lib.gate_area_um2(), 0.0);
  EXPECT_GT(lib.gate_energy_pj(), 0.0);
  EXPECT_GT(lib.gate_leakage_nw(), 0.0);
  EXPECT_GT(lib.fo4_delay_ps(), 0.0);
}

TEST(StdCellLibrary, AreasPlausibleFor130nm) {
  const auto lib = StdCellLibrary::make_si_cmos_130nm();
  // A 130 nm NAND2 is on the order of 10 um^2; a DFF several times that.
  EXPECT_GT(lib.gate_area_um2(), 5.0);
  EXPECT_LT(lib.gate_area_um2(), 20.0);
  EXPECT_GT(lib.cell("DFF_X1").area_um2, 3.0 * lib.cell("INV_X1").area_um2);
}

TEST(StdCellLibrary, CnfetLibraryIsDeratedInSpeed) {
  const auto si = StdCellLibrary::make_si_cmos_130nm();
  const auto cnfet = StdCellLibrary::make_cnfet_130nm(0.8);
  EXPECT_GT(cnfet.cell("CNT_INV_X1").delay_ps, si.cell("INV_X1").delay_ps);
  EXPECT_NEAR(cnfet.cell("CNT_INV_X1").delay_ps,
              si.cell("INV_X1").delay_ps / 0.8, 1e-9);
}

TEST(StdCellLibrary, CnfetLeaksLess) {
  const auto si = StdCellLibrary::make_si_cmos_130nm();
  const auto cnfet = StdCellLibrary::make_cnfet_130nm();
  EXPECT_LT(cnfet.cell("CNT_NAND2_X1").leakage_nw,
            si.cell("NAND2_X1").leakage_nw);
}

TEST(StdCellLibrary, CnfetCellsCarryPrefix) {
  const auto cnfet = StdCellLibrary::make_cnfet_130nm();
  for (const auto& cell : cnfet.cells()) {
    EXPECT_EQ(cell.name.rfind("CNT_", 0), 0u) << cell.name;
  }
  EXPECT_EQ(cnfet.tier(), TierKind::kCnfetFeol);
}

TEST(StdCellLibrary, InvalidDriveRatioThrows) {
  EXPECT_THROW(StdCellLibrary::make_cnfet_130nm(0.0), PreconditionError);
  EXPECT_THROW(StdCellLibrary::make_cnfet_130nm(2.0), PreconditionError);
}

class DriveRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(DriveRatioSweep, DelayScalesInversely) {
  const double ratio = GetParam();
  const auto si = StdCellLibrary::make_si_cmos_130nm();
  const auto cnfet = StdCellLibrary::make_cnfet_130nm(ratio);
  for (const auto& si_cell : si.cells()) {
    const auto& c = cnfet.cell("CNT_" + si_cell.name);
    EXPECT_NEAR(c.delay_ps * ratio, si_cell.delay_ps, 1e-9) << si_cell.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, DriveRatioSweep,
                         ::testing::Values(0.5, 0.6, 0.8, 1.0, 1.2));

}  // namespace
}  // namespace uld3d::tech
