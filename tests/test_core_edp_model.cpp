#include "uld3d/core/edp_model.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

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

Chip3d chip3d(std::int64_t n) {
  Chip3d c;
  c.parallel_cs = n;
  c.bandwidth_bits_per_cycle = 256.0 * static_cast<double>(n);
  c.alpha_pj_per_bit = 1.5 * 0.97;
  c.mem_idle_pj_per_cycle = 10.0;
  return c;
}

TEST(Eq1, RooflineMax) {
  const Chip2d c = chip2d();
  // Memory-bound: D0/B > F0/P.
  WorkloadPoint mem = synthetic_workload(0.5, 256000.0, 8);
  EXPECT_DOUBLE_EQ(execution_time_2d(mem, c), 1000.0);
  // Compute-bound: F0/P > D0/B.
  WorkloadPoint cmp = synthetic_workload(64.0, 256000.0, 8);
  EXPECT_DOUBLE_EQ(execution_time_2d(cmp, c), 64.0 * 256000.0 / 512.0);
}

TEST(Eq4, PaperLiteralFormWhenFullyShared) {
  // With everything shared (default), D0*N/B_3D = D0/B per-bank: memory time
  // is identical to 2D regardless of N.
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(0.5, 256000.0, 64);
  EXPECT_DOUBLE_EQ(execution_time_3d(w, c2, chip3d(1)),
                   execution_time_3d(w, c2, chip3d(8)));
  EXPECT_DOUBLE_EQ(execution_time_3d(w, c2, chip3d(8)),
                   execution_time_2d(w, c2));
}

TEST(Eq4, ComputeTimeScalesWithNmax) {
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(64.0, 256000.0, 64);
  const double t1 = execution_time_3d(w, c2, chip3d(1));
  const double t8 = execution_time_3d(w, c2, chip3d(8));
  EXPECT_NEAR(t1 / t8, 8.0, 1e-9);
}

TEST(Eq4, NmaxCapsAtWorkloadPartitions) {
  const Chip2d c2 = chip2d();
  WorkloadPoint w = synthetic_workload(64.0, 256000.0, 4);  // N# = 4
  const double t4 = execution_time_3d(w, c2, chip3d(4));
  const double t16 = execution_time_3d(w, c2, chip3d(16));
  EXPECT_DOUBLE_EQ(t4, t16);  // extra CSs are useless beyond N#
}

TEST(Eq4, PrivateTrafficSplitsAcrossPartitions) {
  const Chip2d c2 = chip2d();
  WorkloadPoint w = synthetic_workload(0.5, 256000.0, 64);
  w.d0_shared_bits = 0.0;  // fully private (e.g. weight-only traffic)
  const double t1 = execution_time_3d(w, c2, chip3d(1));
  const double t8 = execution_time_3d(w, c2, chip3d(8));
  EXPECT_NEAR(t1 / t8, 8.0, 1e-9);
}

TEST(Eq5, SpeedupIsRatioOfTimes) {
  const Chip2d c2 = chip2d();
  const Chip3d c3 = chip3d(8);
  const WorkloadPoint w = synthetic_workload(64.0, 256000.0, 64);
  const EdpResult r = evaluate_edp(w, c2, c3);
  EXPECT_DOUBLE_EQ(r.speedup, r.t2d_cycles / r.t3d_cycles);
  EXPECT_NEAR(r.speedup, 8.0, 1e-9);
}

TEST(Eq6, EnergyComponentsAddUp) {
  const Chip2d c = chip2d();
  const WorkloadPoint w = synthetic_workload(64.0, 256000.0, 8);
  const double t = execution_time_2d(w, c);
  const double expected =
      c.alpha_pj_per_bit * w.d0_bits +
      c.mem_idle_pj_per_cycle * (t - w.d0_bits / c.bandwidth_bits_per_cycle) +
      c.cs_idle_pj_per_cycle * (t - w.f0_ops / c.peak_ops_per_cycle) +
      c.compute_pj_per_op * w.f0_ops;
  EXPECT_DOUBLE_EQ(energy_2d(w, c), expected);
}

TEST(Eq7, ReducesToEq6WhenNIsOne) {
  const Chip2d c2 = chip2d();
  Chip3d c3 = chip3d(1);
  c3.alpha_pj_per_bit = c2.alpha_pj_per_bit;
  c3.mem_idle_pj_per_cycle = c2.mem_idle_pj_per_cycle;
  const WorkloadPoint w = synthetic_workload(16.0, 256000.0, 8);
  EXPECT_NEAR(energy_3d(w, c2, c3), energy_2d(w, c2), 1e-9);
}

TEST(Eq7, UnusedCssChargeIdleEnergy) {
  const Chip2d c2 = chip2d();
  const WorkloadPoint w = synthetic_workload(64.0, 256000.0, 4);  // N# = 4
  // 16 CSs but only 4 usable: 12 idle the whole time.
  const double e4 = energy_3d(w, c2, chip3d(4));
  const double e16 = energy_3d(w, c2, chip3d(16));
  EXPECT_GT(e16, e4);
}

TEST(Eq8, EdpBenefitComposition) {
  const Chip2d c2 = chip2d();
  const Chip3d c3 = chip3d(8);
  const WorkloadPoint w = synthetic_workload(64.0, 256000.0, 64);
  const EdpResult r = evaluate_edp(w, c2, c3);
  EXPECT_DOUBLE_EQ(r.edp_benefit, r.speedup * (r.e2d_pj / r.e3d_pj));
  EXPECT_DOUBLE_EQ(r.energy_ratio, r.e2d_pj / r.e3d_pj);
  EXPECT_EQ(r.n_max, 8);
}

TEST(CombineResults, SumsAndRecomputes) {
  const Chip2d c2 = chip2d();
  const Chip3d c3 = chip3d(8);
  const WorkloadPoint a = synthetic_workload(64.0, 256000.0, 64);
  const WorkloadPoint b = synthetic_workload(2.0, 512000.0, 4);
  const EdpResult ra = evaluate_edp(a, c2, c3);
  const EdpResult rb = evaluate_edp(b, c2, c3);
  const EdpResult total = combine_results({ra, rb});
  EXPECT_DOUBLE_EQ(total.t2d_cycles, ra.t2d_cycles + rb.t2d_cycles);
  EXPECT_DOUBLE_EQ(total.e3d_pj, ra.e3d_pj + rb.e3d_pj);
  EXPECT_DOUBLE_EQ(total.speedup, total.t2d_cycles / total.t3d_cycles);
  // The combined speedup lies between the per-layer speedups.
  EXPECT_GE(total.speedup, std::min(ra.speedup, rb.speedup));
  EXPECT_LE(total.speedup, std::max(ra.speedup, rb.speedup));
}

TEST(CombineResults, EmptyThrows) {
  EXPECT_THROW(static_cast<void>(combine_results({})), PreconditionError);
}

TEST(Validation, RejectsBadChips) {
  const WorkloadPoint w = synthetic_workload(1.0, 1.0e6, 1);
  Chip2d bad = chip2d();
  bad.bandwidth_bits_per_cycle = 0.0;
  EXPECT_THROW(static_cast<void>(execution_time_2d(w, bad)), PreconditionError);
  Chip3d bad3 = chip3d(0);
  EXPECT_THROW(static_cast<void>(execution_time_3d(w, chip2d(), bad3)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::core
