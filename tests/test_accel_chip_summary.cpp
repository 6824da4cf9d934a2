#include "uld3d/accel/chip_summary.hpp"

#include <gtest/gtest.h>

#include "uld3d/nn/zoo.hpp"

namespace uld3d::accel {
namespace {

TEST(ChipSummary, DerivedFlowInputIsConsistent) {
  const CaseStudy study;
  const auto input = derive_flow_input(study, true);
  EXPECT_DOUBLE_EQ(input.rram_capacity_bits, study.capacity_bits());
  EXPECT_GT(input.cs_logic_area_um2, 0.0);
  EXPECT_GT(input.cs_sram_area_um2, 0.0);
  EXPECT_GT(input.cs_dynamic_mw_each, 0.0);
  EXPECT_GT(input.mem_periph_dynamic_mw, 0.0);
  // The selector share must be a small slice of the memory power.
  EXPECT_LT(input.cnfet_selector_mw, 0.1 * input.mem_periph_dynamic_mw);
  EXPECT_DOUBLE_EQ(input.target_frequency_mhz, 20.0);
}

TEST(ChipSummary, DerivedPowersArePaperScale) {
  // A 20 MHz 130 nm edge accelerator burns milliwatts, not watts.
  const CaseStudy study;
  const auto input = derive_flow_input(study, true);
  const double total = input.cs_dynamic_mw_each * 8.0 +
                       input.mem_periph_dynamic_mw +
                       input.mem_cell_access_mw + input.cnfet_selector_mw;
  EXPECT_GT(total, 1.0);
  EXPECT_LT(total, 500.0);
}

TEST(ChipSummary, CoupledRunReproducesObservationTwo) {
  const CaseStudy study;
  const ChipSummary s = summarize_chip(study, nn::make_resnet18());
  ASSERT_TRUE(s.physical.design_2d.feasible);
  ASSERT_TRUE(s.physical.design_3d.feasible);
  // With SIMULATION-derived powers the paper's claims must still hold.
  EXPECT_LT(s.physical.design_3d.upper_tier_power_fraction, 0.01);
  EXPECT_GT(s.physical.peak_density_ratio, 1.0);
  EXPECT_LT(s.physical.peak_density_ratio, 1.06);
}

TEST(ChipSummary, LatencyAndPowerRelationsHold) {
  const CaseStudy study;
  const ChipSummary s = summarize_chip(study, nn::make_resnet18());
  // M3D finishes ~5.4x sooner; under default activation its power scales
  // with the 8x placed logic.
  EXPECT_NEAR(s.inference_ms_2d / s.inference_ms_3d, s.workload.speedup, 0.01);
  EXPECT_GT(s.power_3d_mw, 3.0 * s.power_2d_mw);
  EXPECT_LT(s.power_3d_mw, 10.0 * s.power_2d_mw);
}

TEST(ChipSummary, DatasheetMentionsKeyRows) {
  const CaseStudy study;
  const ChipSummary s = summarize_chip(study, nn::make_resnet18());
  const std::string sheet = datasheet(s);
  for (const char* needle :
       {"Footprint", "Computing sub-systems", "Inference latency",
        "Peak density", "Upper-tier power", "EDP benefit", "ResNet-18"}) {
    EXPECT_NE(sheet.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace uld3d::accel
