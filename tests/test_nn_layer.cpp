#include "uld3d/nn/layer.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::nn {
namespace {

TEST(Layer, ConvOpsCountMacTimesTwo) {
  // 3x3 conv, 64 out x 32 in channels on a 10x10 map.
  const Layer conv = make_conv("c", 64, 32, 10, 10, 3, 3);
  EXPECT_EQ(conv.macs(), 64 * 32 * 10 * 10 * 9);
  EXPECT_EQ(conv.ops(), 2 * conv.macs());
}

TEST(Layer, ConvWeightAccounting) {
  const Layer conv = make_conv("c", 64, 32, 10, 10, 3, 3);
  EXPECT_EQ(conv.weight_count(), 64 * 32 * 9);
  EXPECT_EQ(conv.weight_bits(8), 64 * 32 * 9 * 8);
  EXPECT_EQ(conv.weight_bits(4), 64 * 32 * 9 * 4);
}

TEST(Layer, ConvInputWindowIncludesHalo) {
  const Layer conv = make_conv("c", 8, 4, 10, 10, 3, 3, /*stride=*/1);
  // Input extent (ox-1)*s + fx = 12.
  EXPECT_EQ(conv.conv().input_x(), 12);
  EXPECT_EQ(conv.input_bits(8), 4 * 12 * 12 * 8);
}

TEST(Layer, StridedConvInputWindow) {
  const Layer conv = make_conv("c", 8, 4, 10, 10, 3, 3, /*stride=*/2);
  EXPECT_EQ(conv.conv().input_x(), 21);  // (10-1)*2 + 3
}

TEST(Layer, ConvOutputBits) {
  const Layer conv = make_conv("c", 8, 4, 10, 10, 3, 3);
  EXPECT_EQ(conv.output_bits(8), 8 * 10 * 10 * 8);
}

TEST(Layer, FcIsOneByOneConv) {
  const Layer fc = make_fc("fc", 1000, 512);
  EXPECT_TRUE(fc.is_conv());
  EXPECT_EQ(fc.macs(), 1000 * 512);
  EXPECT_EQ(fc.weight_count(), 1000 * 512);
  EXPECT_EQ(fc.output_bits(8), 1000 * 8);
}

TEST(Layer, PoolHasNoWeights) {
  const Layer pool = make_pool("p", 64, 5, 5, 2, 2, 2);
  EXPECT_TRUE(pool.is_pool());
  EXPECT_EQ(pool.weight_count(), 0);
  EXPECT_EQ(pool.weight_bits(8), 0);
  EXPECT_EQ(pool.ops(), 64 * 5 * 5 * 4);  // one op per tap
}

TEST(Layer, EltwiseCountsTwoInputOperands) {
  const Layer add = make_eltwise("a", 16, 4, 4);
  EXPECT_TRUE(add.is_eltwise());
  EXPECT_EQ(add.ops(), 16 * 4 * 4);
  EXPECT_EQ(add.input_bits(8), 2 * 16 * 4 * 4 * 8);
  EXPECT_EQ(add.output_bits(8), 16 * 4 * 4 * 8);
}

TEST(Layer, AccessorsEnforceKind) {
  const Layer conv = make_conv("c", 1, 1, 1, 1, 1, 1);
  EXPECT_THROW(static_cast<void>(conv.pool()), PreconditionError);
  EXPECT_THROW(static_cast<void>(conv.eltwise()), PreconditionError);
  const Layer pool = make_pool("p", 1, 1, 1, 1, 1, 1);
  EXPECT_THROW(static_cast<void>(pool.conv()), PreconditionError);
}

TEST(Layer, RejectsNonPositiveDimensions) {
  EXPECT_THROW(make_conv("bad", 0, 1, 1, 1, 1, 1), PreconditionError);
  EXPECT_THROW(make_conv("bad", 1, 1, 1, 1, 1, 1, 0), PreconditionError);
  EXPECT_THROW(make_pool("bad", 1, 0, 1, 1, 1, 1), PreconditionError);
  EXPECT_THROW(make_eltwise("bad", 1, 1, 0), PreconditionError);
}

TEST(Layer, RejectsNonPositivePrecision) {
  const Layer conv = make_conv("c", 1, 1, 1, 1, 1, 1);
  EXPECT_THROW(static_cast<void>(conv.weight_bits(0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(conv.input_bits(-1)), PreconditionError);
}

TEST(Layer, NamePreserved) {
  EXPECT_EQ(make_conv("L2.0 CONV1", 1, 1, 1, 1, 1, 1).name(), "L2.0 CONV1");
}

struct ConvCase {
  std::int64_t k, c, ox, fx, stride;
};

class ConvInvariant : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvInvariant, OpsScaleLinearlyInEachDimension) {
  const auto p = GetParam();
  const Layer base = make_conv("b", p.k, p.c, p.ox, p.ox, p.fx, p.fx, p.stride);
  const Layer twice_k =
      make_conv("k", 2 * p.k, p.c, p.ox, p.ox, p.fx, p.fx, p.stride);
  EXPECT_EQ(twice_k.ops(), 2 * base.ops());
  EXPECT_EQ(twice_k.weight_count(), 2 * base.weight_count());
  // Input traffic does not depend on K.
  EXPECT_EQ(twice_k.input_bits(8), base.input_bits(8));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvInvariant,
    ::testing::Values(ConvCase{16, 16, 8, 3, 1}, ConvCase{64, 3, 112, 7, 2},
                      ConvCase{512, 512, 7, 3, 1}, ConvCase{128, 64, 28, 1, 2},
                      ConvCase{1000, 512, 1, 1, 1}));

}  // namespace
}  // namespace uld3d::nn
