#include "uld3d/accel/case_study.hpp"

#include <gtest/gtest.h>

#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::accel {
namespace {

TEST(CsDesign, AreaInCalibratedRange) {
  const CsDesign cs;
  const auto lib = tech::StdCellLibrary::make_si_cmos_130nm();
  // ~6.5 mm^2: sized so gamma_cells lands just above 7 at 64 MB.
  EXPECT_GT(cs.area_um2(lib), 5.5e6);
  EXPECT_LT(cs.area_um2(lib), 7.5e6);
}

TEST(CsDesign, GateCountAndLeakage) {
  const CsDesign cs;
  const auto lib = tech::StdCellLibrary::make_si_cmos_130nm();
  EXPECT_EQ(cs.total_gates(),
            cs.pe_rows * cs.pe_cols * cs.gates_per_pe + cs.accumulator_gates +
                cs.control_gates);
  EXPECT_GT(cs.leakage_mw(lib), 0.0);
}

TEST(CaseStudy, GammaCellsNearSeven) {
  const CaseStudy study;
  const auto area = study.area_model();
  EXPECT_GT(area.gamma_cells(), 7.0);
  EXPECT_LT(area.gamma_cells(), 8.0);
}

TEST(CaseStudy, EightParallelCss) {
  // The paper's headline configuration: N = 8 at 64 MB.
  EXPECT_EQ(CaseStudy{}.m3d_cs_count(), 8);
}

TEST(CaseStudy, FootprintPaperScale) {
  const CaseStudy study;
  const double mm2 = study.area_model().total_area_um2() / 1.0e6;
  EXPECT_GT(mm2, 50.0);
  EXPECT_LT(mm2, 90.0);
}

TEST(CaseStudy, CapacityScalesCsCount) {
  CaseStudy s12;
  s12.rram_capacity_mb = 12.0;
  CaseStudy s128;
  s128.rram_capacity_mb = 128.0;
  EXPECT_LT(s12.m3d_cs_count(), 4);
  EXPECT_GT(s128.m3d_cs_count(), 12);
}

TEST(CaseStudy, DensityHandicapAddsCss) {
  CaseStudy sram_like;
  sram_like.baseline_mem_density_handicap = 2.0;
  // Paper Observation 3: ~2x the CSs with a 2x-less-dense 2D memory.
  EXPECT_GE(sram_like.m3d_cs_count(), 14);
  EXPECT_LE(sram_like.m3d_cs_count(), 17);
}

TEST(CaseStudy, ConfigsMirrorDesigns) {
  const CaseStudy study;
  const auto c2 = study.config_2d();
  const auto c3 = study.config_3d();
  EXPECT_EQ(c2.n_cs, 1);
  EXPECT_FALSE(c2.m3d);
  EXPECT_EQ(c3.n_cs, 8);
  EXPECT_EQ(c3.n_banks, 8);
  EXPECT_TRUE(c3.m3d);
  EXPECT_DOUBLE_EQ(c2.memory.bank_read_bits_per_cycle,
                   c3.memory.bank_read_bits_per_cycle);
}

TEST(CaseStudy, AnalyticalParamsConsistentWithConfigs) {
  const CaseStudy study;
  const auto c2 = study.chip2d_params();
  const auto c3 = study.chip3d_params();
  EXPECT_DOUBLE_EQ(c2.peak_ops_per_cycle, 512.0);  // 16x16 MACs x 2 ops
  EXPECT_DOUBLE_EQ(c3.bandwidth_bits_per_cycle,
                   8.0 * c2.bandwidth_bits_per_cycle);
  EXPECT_LT(c3.alpha_pj_per_bit, c2.alpha_pj_per_bit);
  const auto c3_custom = study.chip3d_params(4);
  EXPECT_EQ(c3_custom.parallel_cs, 4);
  EXPECT_DOUBLE_EQ(c3_custom.bandwidth_bits_per_cycle,
                   4.0 * c2.bandwidth_bits_per_cycle);
}

TEST(CaseStudy, CapacityBitsConversion) {
  CaseStudy study;
  study.rram_capacity_mb = 64.0;
  EXPECT_DOUBLE_EQ(study.capacity_bits(), units::mb_to_bits(64.0));
}

TEST(CaseStudy, RunProducesFullComparison) {
  const CaseStudy study;
  const auto cmp = study.run(nn::make_resnet18());
  EXPECT_EQ(cmp.layers.size(), nn::make_resnet18().size());
  EXPECT_GT(cmp.speedup, 1.0);
  EXPECT_GT(cmp.edp_benefit, 1.0);
}

TEST(CaseStudy, InvalidConfigurationThrows) {
  CaseStudy bad;
  bad.rram_capacity_mb = 0.0;
  EXPECT_THROW(static_cast<void>(bad.area_model()), PreconditionError);
  CaseStudy bad2;
  bad2.baseline_mem_density_handicap = 0.5;
  EXPECT_THROW(static_cast<void>(bad2.area_model()), PreconditionError);
}

}  // namespace
}  // namespace uld3d::accel
