// Cross-model consistency: the library contains several independent views
// of the same physics (analytical Eq. 1-8, Gables roofline, the cycle
// simulator, the structural netlist, the folding baseline).  These tests
// pin the relations BETWEEN them, which is where modeling bugs hide.
#include <gtest/gtest.h>

#include "uld3d/accel/case_study.hpp"
#include "uld3d/accel/chip_summary.hpp"
#include "uld3d/accel/cs_netlist.hpp"
#include "uld3d/core/edp_model.hpp"
#include "uld3d/core/folding.hpp"
#include "uld3d/core/roofline.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/sim/systolic_trace.hpp"
#include "uld3d/sim/tiling.hpp"
#include "uld3d/util/math.hpp"

namespace uld3d {
namespace {

TEST(CrossModel, RooflineReproducesAnalyticalTimes) {
  // core::Roofline::execution_time_cycles IS Eq. 1; they must agree on any
  // workload and chip.
  const accel::CaseStudy study;
  const core::Chip2d c2 = study.chip2d_params();
  const core::Roofline roof{c2.peak_ops_per_cycle, c2.bandwidth_bits_per_cycle};
  for (const double intensity : {0.01, 0.5, 2.0, 50.0}) {
    const auto w = core::synthetic_workload(intensity, 1.0e8, 8);
    EXPECT_DOUBLE_EQ(roof.execution_time_cycles(w),
                     core::execution_time_2d(w, c2));
  }
}

TEST(CrossModel, GablesHomogeneousMatchesEq4ComputeScaling) {
  // An N-CS Gables SoC with fully-private traffic equals Eq. 4's compute
  // scaling for compute-bound workloads.
  const accel::CaseStudy study;
  const core::Chip2d c2 = study.chip2d_params();
  const core::Chip3d c3 = study.chip3d_params();
  core::WorkloadPoint w = core::synthetic_workload(256.0, 1.0e8, 64);
  w.d0_shared_bits = 0.0;
  const core::Roofline per_cs{c2.peak_ops_per_cycle,
                              c2.bandwidth_bits_per_cycle};
  const auto soc = core::GablesSoc::homogeneous(
      c3.parallel_cs, per_cs, c3.bandwidth_bits_per_cycle);
  EXPECT_NEAR(soc.execution_time_cycles(w),
              core::execution_time_3d(w, c2, c3), 1.0);
}

TEST(CrossModel, MicroSimValidatesTilePlanStreaming) {
  // The network simulator charges max(load, stream) + sync per tile; the
  // cycle-accurate wavefront gives stream + fill + drain.  For a 16x16 tile
  // the micro-sim total must sit between "stream only" and "stream + sync
  // budget" used by the tile plan.
  const sim::ArrayConfig arr;
  const auto problem = sim::TileProblem::make_example(arr.rows, arr.cols, 784);
  const auto trace = sim::simulate_tile(problem);
  EXPECT_GT(trace.total_cycles, 784);
  EXPECT_LE(trace.total_cycles, 784 + 2 * arr.tile_sync_cycles);
}

TEST(CrossModel, NetlistLeakageSupportsIdleEnergyCalibration) {
  // The simulator charges ~2 pJ/cycle of CS idle energy; the structural
  // netlist's leakage at 50 ns per cycle must be the same order (the PE
  // array is most of the CS).
  const accel::CaseStudy study;
  const auto netlist =
      accel::build_cs_array_netlist(study.cs, accel::PeStructure{});
  const double leak_mw =
      netlist.leakage_nw(study.pdk.si_library()) * 1.0e-6;
  const double pj_per_cycle = leak_mw * study.pdk.clock_period_ns();
  const double charged = study.config_2d().memory.cs_idle_pj_per_cycle;
  EXPECT_GT(pj_per_cycle, 0.1 * charged);
  EXPECT_LT(pj_per_cycle, 30.0 * charged);
}

TEST(CrossModel, FoldingNeverBeatsArchitecturalDesignPoints) {
  // The paper's framing holds at EVERY zoo model: folding's ceiling is far
  // below the architectural benefit.
  const accel::CaseStudy study;
  const double folding = core::evaluate_folding({}).edp_benefit;
  for (const char* name : {"alexnet", "vgg16", "resnet18", "resnet152"}) {
    const double architectural =
        study.run(nn::make_network(name)).edp_benefit;
    EXPECT_GT(architectural, 3.0 * folding) << name;
  }
}

TEST(CrossModel, PaperEq2MatchesPlacerCapacity) {
  // Eq. 2's N (area arithmetic) and the placer's achieved CS count (the
  // geometric reality) must agree for the case study.
  const accel::CaseStudy study;
  const auto input = accel::derive_flow_input(study, true);
  const phys::M3dFlow flow;
  const auto r2 = flow.run_design(input, false, 1);
  const auto r3 = flow.run_design(input, true, study.m3d_cs_count(),
                                  r2.die_width_um, r2.die_height_um);
  EXPECT_TRUE(r3.feasible);
  EXPECT_EQ(r3.cs_placed, study.m3d_cs_count());
}

}  // namespace
}  // namespace uld3d
