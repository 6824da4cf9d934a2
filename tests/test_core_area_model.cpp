#include "uld3d/core/area_model.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

AreaModel model(double cs, double cells, double perif = 0.0, double bus = 0.0) {
  AreaModel a;
  a.cs_area_um2 = cs;
  a.mem_cells_area_um2 = cells;
  a.mem_perif_area_um2 = perif;
  a.bus_area_um2 = bus;
  return a;
}

TEST(AreaModel, GammaRatios) {
  const AreaModel a = model(10.0, 70.0, 15.0, 5.0);
  EXPECT_DOUBLE_EQ(a.gamma_cells(), 7.0);
  EXPECT_DOUBLE_EQ(a.gamma_perif(), 1.5);
  EXPECT_DOUBLE_EQ(a.total_area_um2(), 100.0);
}

TEST(AreaModel, Eq2PaperCase) {
  // gamma_cells ~ 7 -> N = 8, the Sec.-II configuration.
  EXPECT_EQ(model(10.0, 70.0).m3d_parallel_cs(), 8);
}

TEST(AreaModel, Eq2FloorSemantics) {
  // A fractional CS cannot be placed: 1 + 6.9 -> 7.
  EXPECT_EQ(model(10.0, 69.0).m3d_parallel_cs(), 7);
  EXPECT_EQ(model(10.0, 69.99).m3d_parallel_cs(), 7);
  EXPECT_EQ(model(10.0, 70.01).m3d_parallel_cs(), 8);
}

TEST(AreaModel, Eq2ExactBoundaryCountsTheCs) {
  // gamma exactly integral places the last CS (epsilon guard).
  EXPECT_EQ(model(10.0, 30.0).m3d_parallel_cs(), 4);
}

TEST(AreaModel, NoFreedAreaMeansOneCs) {
  EXPECT_EQ(model(10.0, 0.0).m3d_parallel_cs(), 1);
  EXPECT_EQ(model(10.0, 5.0).m3d_parallel_cs(), 1);
}

TEST(AreaModel, UsableFractionShrinksN) {
  const AreaModel a = model(10.0, 70.0);
  EXPECT_EQ(a.m3d_parallel_cs(1.0), 8);
  EXPECT_EQ(a.m3d_parallel_cs(0.5), 4);   // 1 + 3.5
  EXPECT_EQ(a.m3d_parallel_cs(0.1), 1);   // 1 + 0.7
}

TEST(AreaModel, UsableFractionValidated) {
  const AreaModel a = model(10.0, 70.0);
  EXPECT_THROW(static_cast<void>(a.m3d_parallel_cs(0.0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(a.m3d_parallel_cs(1.5)), PreconditionError);
}

TEST(AreaModel, ValidationRejectsBadAreas) {
  EXPECT_THROW(static_cast<void>(model(0.0, 1.0).gamma_cells()),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(model(1.0, -1.0).gamma_cells()),
               PreconditionError);
}

class CapacityScaling : public ::testing::TestWithParam<double> {};

TEST_P(CapacityScaling, NGrowsMonotonicallyWithCellArea) {
  const double scale = GetParam();
  const AreaModel small = model(10.0, 70.0);
  const AreaModel large = model(10.0, 70.0 * scale);
  EXPECT_GE(large.m3d_parallel_cs(), small.m3d_parallel_cs());
  // Linear scaling of gamma (Observation 6's driver).
  EXPECT_NEAR(large.gamma_cells(), small.gamma_cells() * scale, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, CapacityScaling,
                         ::testing::Values(1.0, 1.5, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace uld3d::core
