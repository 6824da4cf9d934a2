#include "uld3d/nn/network.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::nn {
namespace {

Network tiny() {
  std::vector<Layer> layers;
  layers.push_back(make_conv("c1", 8, 3, 4, 4, 3, 3));
  layers.push_back(make_pool("p1", 8, 2, 2, 2, 2, 2));
  layers.push_back(make_fc("fc", 10, 32));
  return Network("tiny", std::move(layers));
}

TEST(Network, RejectsEmpty) {
  EXPECT_THROW(Network("empty", {}), PreconditionError);
}

TEST(Network, TotalsSumOverLayers) {
  const Network net = tiny();
  std::int64_t ops = 0;
  std::int64_t macs = 0;
  std::int64_t weights = 0;
  for (const auto& l : net.layers()) {
    ops += l.ops();
    macs += l.macs();
    weights += l.weight_count();
  }
  EXPECT_EQ(net.total_ops(), ops);
  EXPECT_EQ(net.total_macs(), macs);
  EXPECT_EQ(net.total_weights(), weights);
  EXPECT_EQ(net.total_weight_bits(8), 8 * weights);
}

TEST(Network, LayerAccessByIndex) {
  const Network net = tiny();
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.layer(0).name(), "c1");
  EXPECT_EQ(net.layer(2).name(), "fc");
  EXPECT_THROW(static_cast<void>(net.layer(3)), PreconditionError);
}

TEST(Network, PeakActivationIsMaxOverLayers) {
  const Network net = tiny();
  std::int64_t peak = 0;
  for (const auto& l : net.layers()) {
    peak = std::max(peak, l.input_bits(8) + l.output_bits(8));
  }
  EXPECT_EQ(net.peak_activation_bits(8), peak);
  EXPECT_GT(peak, 0);
}

TEST(Network, NamePreserved) { EXPECT_EQ(tiny().name(), "tiny"); }

}  // namespace
}  // namespace uld3d::nn
