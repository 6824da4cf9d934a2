#include "uld3d/core/workload.hpp"

#include <gtest/gtest.h>

#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/check.hpp"

namespace uld3d::core {
namespace {

TEST(Traffic, SumsSelectedComponents) {
  const nn::Layer conv = nn::make_conv("c", 8, 4, 10, 10, 3, 3);
  TrafficOptions opts;
  opts.output_write_weight = 1.0;
  const double all = layer_traffic_bits(conv, opts);
  opts.count_weights = false;
  const double no_w = layer_traffic_bits(conv, opts);
  EXPECT_DOUBLE_EQ(all - no_w, static_cast<double>(conv.weight_bits(8)));
  opts.count_weights = true;
  opts.count_inputs = false;
  const double no_i = layer_traffic_bits(conv, opts);
  EXPECT_DOUBLE_EQ(all - no_i, static_cast<double>(conv.input_bits(8)));
}

TEST(Traffic, WriteWeightAmplifiesOutputs) {
  const nn::Layer conv = nn::make_conv("c", 8, 4, 10, 10, 3, 3);
  TrafficOptions w1;
  w1.output_write_weight = 1.0;
  TrafficOptions w4;
  w4.output_write_weight = 4.0;
  EXPECT_DOUBLE_EQ(layer_traffic_bits(conv, w4) - layer_traffic_bits(conv, w1),
                   3.0 * static_cast<double>(conv.output_bits(8)));
}

TEST(LayerWorkload, ConvPartitionsByOutputChannels) {
  const nn::Layer conv = nn::make_conv("c", 100, 64, 10, 10, 3, 3);
  const WorkloadPoint w = layer_workload(conv, {}, {});
  EXPECT_EQ(w.max_partitions, 7);  // ceil(100/16)
  // K-partitioning replicates the input map.
  EXPECT_DOUBLE_EQ(w.shared_bits(), static_cast<double>(conv.input_bits(8)));
}

TEST(LayerWorkload, UtilizationInflatesEffectiveOps) {
  // C = 3 with tap packing off: 3/16 of the rows work.
  const nn::Layer conv = nn::make_conv("c", 16, 3, 10, 10, 1, 1);
  PartitionOptions part;
  part.channel_tap_packing = false;
  const WorkloadPoint w = layer_workload(conv, {}, part);
  EXPECT_NEAR(w.f0_ops, static_cast<double>(conv.ops()) / (3.0 / 16.0), 1e-6);
}

TEST(LayerWorkload, TapPackingRecoversUtilization) {
  // C = 3, 3x3 taps: 5 taps pack into 15 of 16 rows.
  const nn::Layer conv = nn::make_conv("c", 16, 3, 10, 10, 3, 3);
  PartitionOptions packed;
  const double util = conv_spatial_utilization(conv.conv(), packed);
  EXPECT_NEAR(util, 15.0 / 16.0, 1e-12);
  PartitionOptions unpacked;
  unpacked.channel_tap_packing = false;
  EXPECT_NEAR(conv_spatial_utilization(conv.conv(), unpacked), 3.0 / 16.0,
              1e-12);
}

TEST(LayerWorkload, DsConvPartitionsByInputChannels) {
  // 1x1 strided projection with C > rows: C-partitioned, nothing shared.
  const nn::Layer ds = nn::make_conv("ds", 128, 64, 28, 28, 1, 1, 2);
  const WorkloadPoint w = layer_workload(ds, {}, {});
  EXPECT_EQ(w.max_partitions, 4);  // ceil(64/16)
  EXPECT_DOUBLE_EQ(w.shared_bits(), 0.0);
}

TEST(LayerWorkload, DsPartitionCanBeDisabled) {
  const nn::Layer ds = nn::make_conv("ds", 128, 64, 28, 28, 1, 1, 2);
  PartitionOptions part;
  part.ds_c_partition = false;
  const WorkloadPoint w = layer_workload(ds, {}, part);
  EXPECT_EQ(w.max_partitions, 8);  // ceil(128/16): back to K-partitioning
}

TEST(LayerWorkload, HybridPartitioningMultipliesBounds) {
  const nn::Layer conv = nn::make_conv("c", 64, 64, 32, 32, 3, 3);
  PartitionOptions part;
  part.hybrid_pixel_partition = true;
  part.spatial_oy = 4;
  const WorkloadPoint w = layer_workload(conv, {}, part);
  EXPECT_EQ(w.max_partitions, 4 * 8);  // ceil(64/16) * ceil(32/4)
  EXPECT_DOUBLE_EQ(w.shared_bits(), 0.0);
}

TEST(LayerWorkload, SerialVectorUnitPinsPoolToOne) {
  const nn::Layer pool = nn::make_pool("p", 64, 10, 10, 2, 2, 2);
  EXPECT_EQ(layer_workload(pool, {}, {}).max_partitions, 1);
  PartitionOptions parallel;
  parallel.serial_vector_unit = false;
  EXPECT_EQ(layer_workload(pool, {}, parallel).max_partitions, 64);
}

TEST(NetworkWorkload, SumsTrafficAndOps) {
  const nn::Network net = nn::make_resnet18();
  const WorkloadPoint total = network_workload(net, {}, {});
  const auto layers = layer_workloads(net, {}, {});
  double f0 = 0.0;
  double d0 = 0.0;
  for (const auto& w : layers) {
    f0 += w.f0_ops;
    d0 += w.d0_bits;
  }
  EXPECT_NEAR(total.f0_ops, f0, 1.0);
  EXPECT_NEAR(total.d0_bits, d0, 1.0);
  EXPECT_EQ(layers.size(), net.size());
}

TEST(NetworkWorkload, EffectivePartitionsBetweenMinAndMax) {
  const nn::Network net = nn::make_resnet18();
  const auto layers = layer_workloads(net, {}, {});
  std::int64_t lo = layers.front().max_partitions;
  std::int64_t hi = lo;
  for (const auto& w : layers) {
    lo = std::min(lo, w.max_partitions);
    hi = std::max(hi, w.max_partitions);
  }
  const WorkloadPoint total = network_workload(net, {}, {});
  EXPECT_GE(total.max_partitions, lo);
  EXPECT_LE(total.max_partitions, hi);
}

TEST(SyntheticWorkload, IntensityRoundTrips) {
  const WorkloadPoint w = synthetic_workload(16.0, 1.0e6, 8);
  EXPECT_DOUBLE_EQ(w.intensity(), 16.0);
  EXPECT_DOUBLE_EQ(w.f0_ops, 16.0e6);
  EXPECT_EQ(w.max_partitions, 8);
  // Default: fully shared (the paper's literal Eq. 4).
  EXPECT_DOUBLE_EQ(w.shared_bits(), w.d0_bits);
}

TEST(SyntheticWorkload, Validation) {
  EXPECT_THROW(static_cast<void>(synthetic_workload(0.0, 1.0, 1)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(synthetic_workload(1.0, 0.0, 1)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(synthetic_workload(1.0, 1.0, 0)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::core
