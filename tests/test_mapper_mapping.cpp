// The seed's temporal mappings (tests/reference/price_conv.hpp), which the
// pricing kernel must reproduce, and the production spatial_utilization.
#include <gtest/gtest.h>

#include "reference/price_conv.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/layer.hpp"

namespace uld3d::mapper {
namespace {

using reference::candidate_mappings;

nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                  std::int64_t fx, std::int64_t stride = 1) {
  nn::ConvSpec s;
  s.name = "c";
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = ox;
  s.fx = fx;
  s.fy = fx;
  s.stride = stride;
  return s;
}

TEST(SpatialUtilization, PerfectFit) {
  const auto arch = make_table2_architecture(3);  // (32, 32)
  EXPECT_DOUBLE_EQ(spatial_utilization(conv(64, 64, 14, 3), arch.spatial), 1.0);
}

TEST(SpatialUtilization, SmallChannelsUnderfill) {
  const auto arch = make_table2_architecture(3);
  EXPECT_NEAR(spatial_utilization(conv(96, 3, 55, 11), arch.spatial),
              3.0 / 32.0, 1e-12);
}

TEST(SpatialUtilization, RaggedDimensions) {
  const auto arch = make_table2_architecture(3);
  // K = 48 on k = 32: 48/64 fill.
  EXPECT_NEAR(spatial_utilization(conv(48, 32, 14, 3), arch.spatial), 0.75,
              1e-12);
}

TEST(Mappings, ThreeCandidatesAlwaysProduced) {
  for (int i = 1; i <= 6; ++i) {
    const auto arch = make_table2_architecture(i);
    const auto candidates = candidate_mappings(conv(256, 96, 27, 5), arch);
    ASSERT_EQ(candidates.size(), 3u) << arch.name;
    EXPECT_EQ(candidates[0].order, "weight-outer");
    EXPECT_EQ(candidates[1].order, "input-outer");
    EXPECT_EQ(candidates[2].order, "pixel-tiled");
  }
}

TEST(Mappings, ComputeCyclesEqualAcrossCandidates) {
  const auto arch = make_table2_architecture(1);
  const auto candidates = candidate_mappings(conv(256, 96, 27, 5), arch);
  for (const auto& m : candidates) {
    EXPECT_DOUBLE_EQ(m.compute_cycles, candidates[0].compute_cycles);
  }
}

TEST(Mappings, WeightsEnterChipAtLeastOnce) {
  const auto arch = make_table2_architecture(1);
  const auto spec = conv(256, 96, 27, 5);
  const double w_bits =
      static_cast<double>(spec.k * spec.c * spec.fx * spec.fy * 8);
  for (const auto& m : candidate_mappings(spec, arch)) {
    EXPECT_GE(m.weights.rram_read_bits, w_bits - 1.0) << m.order;
  }
}

TEST(Mappings, OutputsWrittenExactlyOnce) {
  const auto arch = make_table2_architecture(1);
  const auto spec = conv(256, 96, 27, 5);
  const double o_bits = static_cast<double>(spec.k * spec.ox * spec.oy * 8);
  for (const auto& m : candidate_mappings(spec, arch)) {
    EXPECT_DOUBLE_EQ(m.outputs.rram_write_bits, o_bits) << m.order;
  }
}

TEST(Mappings, InputOuterRefetchesLessThanWeightOuter) {
  // Order B trades psum residency for fewer input passes.
  const auto arch = make_table2_architecture(1);
  const auto spec = conv(512, 64, 28, 3);  // k_outer = 32 -> heavy A refetch
  const auto candidates = candidate_mappings(spec, arch);
  const double reads_a = candidates[0].inputs.rram_read_bits +
                         candidates[0].inputs.global_bits +
                         candidates[0].inputs.local_bits;
  const double reads_b = candidates[1].inputs.rram_read_bits +
                         candidates[1].inputs.global_bits +
                         candidates[1].inputs.local_bits;
  EXPECT_LT(reads_b, reads_a);
}

TEST(Mappings, PixelTilingRefetchesWeights) {
  // Arch 2 has no local output SRAM: a big-psum layer forces pixel tiling to
  // refetch weights multiple times.
  const auto arch = make_table2_architecture(2);
  const auto spec = conv(512, 512, 56, 3);
  const auto candidates = candidate_mappings(spec, arch);
  const double w_bits =
      static_cast<double>(spec.k * spec.c * spec.fx * spec.fy * 8);
  EXPECT_GT(candidates[2].weights.rram_read_bits, 1.5 * w_bits);
}

TEST(Mappings, RegisterTrafficCountsEveryMac) {
  const auto arch = make_table2_architecture(1);
  const auto spec = conv(64, 64, 14, 3);
  const double macs =
      static_cast<double>(spec.k * spec.c * spec.ox * spec.oy * spec.fx * spec.fy);
  for (const auto& m : candidate_mappings(spec, arch)) {
    EXPECT_GE(m.weights.reg_bits, macs * 8.0 - 1.0);
    EXPECT_GE(m.outputs.reg_bits, 2.0 * macs * 24.0 - 1.0);  // psum rd+wr
  }
}

TEST(Mappings, UtilizationPropagated) {
  const auto arch = make_table2_architecture(3);
  const auto spec = conv(96, 3, 55, 11);
  for (const auto& m : candidate_mappings(spec, arch)) {
    EXPECT_NEAR(m.utilization, 3.0 / 32.0, 1e-12);
  }
}

}  // namespace
}  // namespace uld3d::mapper
