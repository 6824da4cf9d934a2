#include "uld3d/core/multi_tier.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

AreaModel area() {
  AreaModel a;
  a.cs_area_um2 = 10.0;
  a.mem_cells_area_um2 = 72.0;   // gamma_cells = 7.2
  a.mem_perif_area_um2 = 14.0;   // gamma_perif = 1.4
  a.bus_area_um2 = 4.0;
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

TEST(MultiTier, SinglePairMatchesEq2) {
  // Y = 1 is the Sec.-II design: only gamma_cells frees Si area.
  EXPECT_EQ(multi_tier_parallel_cs(area(), 1), 8);
}

TEST(MultiTier, PairsIncludePeripheralsFromYTwo) {
  // Y >= 2: N = Y * floor(1 + g_cells + g_perif) = Y * floor(9.6) = 9Y.
  EXPECT_EQ(multi_tier_parallel_cs(area(), 2), 18);
  EXPECT_EQ(multi_tier_parallel_cs(area(), 3), 27);
}

TEST(MultiTier, RejectsZeroPairs) {
  EXPECT_THROW(static_cast<void>(multi_tier_parallel_cs(area(), 0)),
               PreconditionError);
}

TEST(MultiTier, BenefitGrowsThenPlateausAtWorkloadBound) {
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(256.0, 1.0e6, 20);  // N# = 20
  double previous = 0.0;
  double plateau = 0.0;
  for (std::int64_t y = 1; y <= 5; ++y) {
    const EdpResult r = evaluate_multi_tier_edp(w, c2, area(), y, 256.0);
    if (y <= 2) {
      EXPECT_GT(r.edp_benefit, previous) << y;  // still scaling
    }
    previous = r.edp_benefit;
    plateau = r.edp_benefit;
  }
  // Once N > N#, speedup is pinned at N#: adding tiers stops helping
  // (and extra idle CSs slightly hurt — Observation 9's plateau).
  const EdpResult y3 = evaluate_multi_tier_edp(w, c2, area(), 3, 256.0);
  EXPECT_NEAR(plateau, y3.edp_benefit, 0.15 * y3.edp_benefit);
}

TEST(MultiTier, HighlyParallelWorkloadKeepsScaling) {
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(256.0, 1.0e6, 100000);
  const double b1 = evaluate_multi_tier_edp(w, c2, area(), 1, 256.0).edp_benefit;
  const double b4 = evaluate_multi_tier_edp(w, c2, area(), 4, 256.0).edp_benefit;
  EXPECT_GT(b4, 3.0 * b1);
}

class TierSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TierSweep, CsCountScalesLinearlyBeyondFirstPair) {
  const std::int64_t y = GetParam();
  if (y < 2) return;
  const std::int64_t per_pair = multi_tier_parallel_cs(area(), 2) / 2;
  EXPECT_EQ(multi_tier_parallel_cs(area(), y), y * per_pair);
}

TEST_P(TierSweep, SpeedupBoundedByCsCount) {
  const std::int64_t y = GetParam();
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(256.0, 1.0e6, 1000);
  const EdpResult r = evaluate_multi_tier_edp(w, c2, area(), y, 256.0);
  EXPECT_LE(r.speedup,
            static_cast<double>(multi_tier_parallel_cs(area(), y)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pairs, TierSweep, ::testing::Range<std::int64_t>(1, 7));

}  // namespace
}  // namespace uld3d::core
