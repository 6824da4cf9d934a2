#include "uld3d/core/roofline.hpp"

#include "uld3d/core/edp_model.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

Roofline roof() { return {512.0, 256.0}; }

TEST(Roofline, AttainableFollowsMin) {
  const Roofline r = roof();
  // Below the ridge: bandwidth-limited.
  EXPECT_DOUBLE_EQ(r.attainable_ops_per_cycle(1.0), 256.0);
  // Above the ridge: compute-limited.
  EXPECT_DOUBLE_EQ(r.attainable_ops_per_cycle(100.0), 512.0);
  // At the ridge both agree.
  EXPECT_DOUBLE_EQ(r.attainable_ops_per_cycle(r.ridge_intensity()), 512.0);
}

TEST(Roofline, RidgeIntensity) {
  EXPECT_DOUBLE_EQ(roof().ridge_intensity(), 2.0);
}

TEST(Roofline, ExecutionTimeIsEq1) {
  const Roofline r = roof();
  const WorkloadPoint mem = synthetic_workload(0.5, 256000.0, 8);
  EXPECT_DOUBLE_EQ(r.execution_time_cycles(mem), 1000.0);
  EXPECT_TRUE(r.memory_bound(mem));
  const WorkloadPoint cmp = synthetic_workload(64.0, 256000.0, 8);
  EXPECT_DOUBLE_EQ(r.execution_time_cycles(cmp), 64.0 * 256000.0 / 512.0);
  EXPECT_FALSE(r.memory_bound(cmp));
}

TEST(Roofline, MatchesAnalyticalEq1) {
  Chip2d c2;
  c2.bandwidth_bits_per_cycle = 256.0;
  c2.peak_ops_per_cycle = 512.0;
  c2.alpha_pj_per_bit = 1.0;
  c2.compute_pj_per_op = 1.0;
  const Roofline r = roof();
  for (const double intensity : {0.1, 1.0, 2.0, 10.0, 100.0}) {
    const WorkloadPoint w = synthetic_workload(intensity, 1.0e6, 4);
    EXPECT_DOUBLE_EQ(r.execution_time_cycles(w), execution_time_2d(w, c2));
  }
}

TEST(Gables, SingleIpMatchesPrivateRoofline) {
  GablesSoc soc(256.0);
  soc.add_ip({roof(), 1.0});
  const WorkloadPoint w = synthetic_workload(4.0, 1.0e6, 4);
  EXPECT_DOUBLE_EQ(soc.execution_time_cycles(w),
                   roof().execution_time_cycles(w));
}

TEST(Gables, HomogeneousScalesCompute) {
  // 8 CSs, shared bandwidth 8x per-CS: compute-bound workloads speed up 8x.
  const GablesSoc soc = GablesSoc::homogeneous(8, roof(), 8.0 * 256.0);
  const WorkloadPoint w = synthetic_workload(256.0, 1.0e6, 8);
  EXPECT_NEAR(roof().execution_time_cycles(w) / soc.execution_time_cycles(w),
              8.0, 1e-9);
}

TEST(Gables, SharedBandwidthBoundsMemoryTime) {
  // Plentiful per-IP bandwidth but a narrow shared port: the SoC is bound
  // by the shared memory system.
  GablesSoc soc(64.0);
  soc.add_ip({{512.0, 1.0e9}, 0.5});
  soc.add_ip({{512.0, 1.0e9}, 0.5});
  const WorkloadPoint w = synthetic_workload(0.25, 64000.0, 2);
  EXPECT_DOUBLE_EQ(soc.execution_time_cycles(w), 1000.0);  // 64000/64
}

TEST(Gables, SlowestIpDominates) {
  GablesSoc soc(1.0e9);
  soc.add_ip({{512.0, 1.0e9}, 0.9});   // fast IP, most of the work
  soc.add_ip({{1.0, 1.0e9}, 0.1});     // tiny IP, 10% of the work
  const WorkloadPoint w = synthetic_workload(1000.0, 1000.0, 2);
  // The tiny IP's compute time dominates: 0.1 * F0 / 1.
  EXPECT_DOUBLE_EQ(soc.execution_time_cycles(w), 0.1 * w.f0_ops);
}

TEST(Gables, Validation) {
  EXPECT_THROW(GablesSoc(0.0), PreconditionError);
  GablesSoc soc(1.0);
  EXPECT_THROW(soc.add_ip({{0.0, 1.0}, 1.0}), PreconditionError);
  EXPECT_THROW(soc.add_ip({roof(), 0.0}), PreconditionError);
  EXPECT_THROW(soc.add_ip({roof(), 1.5}), PreconditionError);
  const WorkloadPoint w = synthetic_workload(1.0, 1.0, 1);
  EXPECT_THROW(static_cast<void>(GablesSoc(1.0).execution_time_cycles(w)),
               PreconditionError);
}

TEST(Roofline, Validation) {
  const Roofline bad{0.0, 1.0};
  EXPECT_THROW(static_cast<void>(bad.attainable_ops_per_cycle(1.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(roof().attainable_ops_per_cycle(-1.0)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::core
