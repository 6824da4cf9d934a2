#include "uld3d/io/study_config.hpp"

#include <gtest/gtest.h>

#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::io {
namespace {

TEST(StudyConfig, EmptyConfigGivesPaperDefaults) {
  const auto study = case_study_from_config(Config::parse(""));
  EXPECT_DOUBLE_EQ(study.rram_capacity_mb, 64.0);
  EXPECT_EQ(study.m3d_cs_count(), 8);
  EXPECT_DOUBLE_EQ(study.pdk.node().feature_nm, 130.0);
}

TEST(StudyConfig, OverridesApply) {
  const auto study = case_study_from_config(Config::parse(R"(
[study]
capacity_mb = 128
[cnfet]
width_relaxation = 1.5
[cs]
sram_kb = 64
)"));
  EXPECT_DOUBLE_EQ(study.rram_capacity_mb, 128.0);
  EXPECT_DOUBLE_EQ(study.pdk.cnfet().width_relaxation, 1.5);
  EXPECT_DOUBLE_EQ(study.cs.sram_buffer_kb, 64.0);
  EXPECT_GT(study.m3d_cs_count(), 8);
}

TEST(StudyConfig, RoundTripPreservesTheDesignPoint) {
  accel::CaseStudy original;
  original.rram_capacity_mb = 96.0;
  original.cs.sram_buffer_kb = 128.0;
  const auto restored =
      case_study_from_config(Config::parse(case_study_to_config(original).to_text()));
  EXPECT_DOUBLE_EQ(restored.rram_capacity_mb, 96.0);
  EXPECT_DOUBLE_EQ(restored.cs.sram_buffer_kb, 128.0);
  EXPECT_EQ(restored.m3d_cs_count(), original.m3d_cs_count());
  // The restored study produces identical results.
  const auto net = nn::make_resnet18();
  EXPECT_DOUBLE_EQ(restored.run(net).edp_benefit,
                   original.run(net).edp_benefit);
}

TEST(StudyConfig, ArchitectureFromConfig) {
  const auto arch = architecture_from_config(Config::parse(R"(
[arch]
name = my-arch
spatial_k = 64
spatial_c = 16
rram_mb = 128
[weights]
reg_bytes = 2
local_kb = 16
global_mb = 1
[inputs]
local_kb = 16
global_mb = 1
[outputs]
reg_bytes = 4
global_mb = 1
)"));
  EXPECT_EQ(arch.name, "my-arch");
  EXPECT_EQ(arch.spatial.k, 64);
  EXPECT_EQ(arch.spatial.total_pes(), 64 * 16);
  EXPECT_DOUBLE_EQ(arch.rram_capacity_bits, units::mb_to_bits(128.0));
  EXPECT_DOUBLE_EQ(arch.weights.reg.capacity_bits, 16.0);
  EXPECT_DOUBLE_EQ(arch.inputs.local.capacity_bits, units::kb_to_bits(16.0));
  EXPECT_DOUBLE_EQ(arch.outputs.local.capacity_bits, 0.0);  // absent level
}

TEST(StudyConfig, ArchDefaultsAreUsable) {
  const auto arch = architecture_from_config(Config::parse("[arch]\n"));
  EXPECT_NO_THROW(arch.validate());
  EXPECT_EQ(arch.spatial.total_pes(), 256);
}

TEST(StudyConfig, ArchPeCountOverflowIsRefused) {
  // 2^32 x 2^32 PEs overflows total_pes(); 3037000499^2 fits in 64 bits,
  // but its gate count (x 600) does not.
  for (const char* side : {"4294967296", "3037000500", "3037000499"}) {
    const std::string ini = std::string("[arch]\nspatial_k = ") + side +
                            "\nspatial_c = " + side + "\n";
    EXPECT_THROW((void)architecture_from_config(Config::parse(ini)),
                 PreconditionError)
        << side;
  }
}

}  // namespace
}  // namespace uld3d::io
