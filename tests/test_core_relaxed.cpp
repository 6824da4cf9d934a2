#include "uld3d/core/relaxed_baseline.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

AreaModel paper_like_area() {
  AreaModel a;
  a.cs_area_um2 = 10.0;
  a.mem_cells_area_um2 = 72.0;  // gamma_cells = 7.2 -> N = 8
  a.mem_perif_area_um2 = 18.0;
  a.bus_area_um2 = 4.0;         // A_2D = 104
  return a;
}

Chip2d chip2d() {
  Chip2d c;
  c.bandwidth_bits_per_cycle = 256.0;
  c.peak_ops_per_cycle = 512.0;
  c.alpha_pj_per_bit = 1.5;
  c.compute_pj_per_op = 1.0;
  c.cs_idle_pj_per_cycle = 2.0;
  c.mem_idle_pj_per_cycle = 10.0;
  return c;
}

TEST(RelaxedDesignPoint, NoRelaxationKeepsFootprint) {
  const auto p = relaxed_design_point(paper_like_area(), 1.0);
  EXPECT_DOUBLE_EQ(p.footprint_um2, 104.0);
  EXPECT_EQ(p.n_2d, 1);
  EXPECT_EQ(p.n_3d, 8);  // 1 + floor(72/10)
}

TEST(RelaxedDesignPoint, SmallGrowthAbsorbedByFootprint) {
  // Grown cells (86.4) still < A_2D (104): no extra 2D CSs (Eq. 9's max).
  const auto p = relaxed_design_point(paper_like_area(), 1.2);
  EXPECT_EQ(p.n_2d, 1);
  EXPECT_GE(p.n_3d, 8);
}

TEST(RelaxedDesignPoint, LargeGrowthAddsBaselineCss) {
  // scale 2.0: cells 144 > A_2D 104 -> extra 40 -> 4 extra CSs.
  const auto p = relaxed_design_point(paper_like_area(), 2.0);
  EXPECT_EQ(p.n_2d, 5);
  EXPECT_EQ(p.n_3d, 1 + 14);  // floor(144/10)
  EXPECT_GT(p.footprint_um2, 104.0);
}

TEST(RelaxedDesignPoint, M3dAlwaysHostsAtLeastAsMany) {
  for (const double scale : {1.0, 1.3, 1.7, 2.2, 3.0, 5.0}) {
    const auto p = relaxed_design_point(paper_like_area(), scale);
    EXPECT_GE(p.n_3d, p.n_2d) << scale;
  }
}

TEST(RelaxedDesignPoint, RejectsShrinkage) {
  EXPECT_THROW(static_cast<void>(relaxed_design_point(paper_like_area(), 0.9)),
               PreconditionError);
}

TEST(RelaxedEdp, UnrelaxedMatchesStandardEvaluation) {
  const AreaModel area = paper_like_area();
  const Chip2d c2 = chip2d();
  const auto point = relaxed_design_point(area, 1.0);
  const RelaxedBandwidth bw{c2.bandwidth_bits_per_cycle};
  const WorkloadPoint w = synthetic_workload(64.0, 1.0e6, 64);

  const EdpResult relaxed = evaluate_relaxed_edp(w, c2, point, bw);

  Chip3d c3;
  c3.parallel_cs = point.n_3d;
  c3.bandwidth_bits_per_cycle = c2.bandwidth_bits_per_cycle * 8.0;
  c3.alpha_pj_per_bit = c2.alpha_pj_per_bit * 0.97;
  c3.mem_idle_pj_per_cycle = c2.mem_idle_pj_per_cycle;
  const EdpResult direct = evaluate_edp(w, c2, c3);

  EXPECT_NEAR(relaxed.speedup, direct.speedup, 1e-6);
  EXPECT_NEAR(relaxed.edp_benefit, direct.edp_benefit, 0.05 * direct.edp_benefit);
}

TEST(RelaxedEdp, BenefitDecaysTowardOneAtExtremeRelaxation) {
  const AreaModel area = paper_like_area();
  const Chip2d c2 = chip2d();
  const RelaxedBandwidth bw{c2.bandwidth_bits_per_cycle};
  const WorkloadPoint w = synthetic_workload(64.0, 1.0e6, 16);
  const double b1 =
      evaluate_relaxed_edp(w, c2, relaxed_design_point(area, 1.0), bw).edp_benefit;
  const double b5 =
      evaluate_relaxed_edp(w, c2, relaxed_design_point(area, 5.0), bw).edp_benefit;
  EXPECT_GT(b1, 3.0);
  EXPECT_LT(b5, 2.0);
  EXPECT_GE(b5, 0.9);  // never meaningfully WORSE than the matched 2D chip
}

class RelaxationSweep : public ::testing::TestWithParam<double> {};

TEST_P(RelaxationSweep, BenefitIsBoundedByUnrelaxedCssRatio) {
  const double scale = GetParam();
  const AreaModel area = paper_like_area();
  const Chip2d c2 = chip2d();
  const RelaxedBandwidth bw{c2.bandwidth_bits_per_cycle};
  const auto point = relaxed_design_point(area, scale);
  const WorkloadPoint w = synthetic_workload(64.0, 1.0e6, 1024);
  const EdpResult r = evaluate_relaxed_edp(w, c2, point, bw);
  const double cs_ratio =
      static_cast<double>(point.n_3d) / static_cast<double>(point.n_2d);
  EXPECT_LE(r.speedup, cs_ratio + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, RelaxationSweep,
                         ::testing::Values(1.0, 1.2, 1.6, 2.0, 2.5, 4.0));

}  // namespace
}  // namespace uld3d::core
