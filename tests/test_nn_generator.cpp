#include "uld3d/nn/generator.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::nn {
namespace {

TEST(Generator, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  const Network na = random_network(a);
  const Network nb = random_network(b);
  ASSERT_EQ(na.size(), nb.size());
  EXPECT_EQ(na.total_macs(), nb.total_macs());
  EXPECT_EQ(na.total_weights(), nb.total_weights());
}

TEST(Generator, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(random_network(a).total_macs(), random_network(b).total_macs());
}

TEST(Generator, RespectsChannelCap) {
  GeneratorOptions opt;
  opt.max_channels = 64;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const Network net = random_network(rng, opt);
    for (const auto& l : net.layers()) {
      if (l.is_conv()) {
        EXPECT_LE(l.conv().k, 1000) << l.name();  // classifier may exceed
        if (l.name() != "FC") {
          EXPECT_LE(l.conv().k, 64) << l.name();
        }
      }
    }
  }
}

TEST(Generator, ClassifierOptional) {
  GeneratorOptions opt;
  opt.end_with_classifier = false;
  Rng rng(3);
  const Network net = random_network(rng, opt);
  EXPECT_NE(net.layer(net.size() - 1).name(), "FC");
}

TEST(Generator, Validation) {
  GeneratorOptions bad;
  bad.min_stages = 3;
  bad.max_stages = 2;
  Rng rng(1);
  EXPECT_THROW(random_network(rng, bad), PreconditionError);
}

class GeneratorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorFuzz, GeneratedNetworksAreStructurallyValid) {
  Rng rng(GetParam());
  const Network net = random_network(rng);
  EXPECT_GE(net.size(), 3u);
  EXPECT_GT(net.total_macs(), 0);
  std::int64_t previous_channels = 3;
  for (const auto& l : net.layers()) {
    EXPECT_GT(l.ops(), 0) << l.name();
    if (l.is_conv() && l.name() != "FC" &&
        l.name().find("DS") == std::string::npos) {
      // The main path chains channel counts.
      EXPECT_EQ(l.conv().c, previous_channels) << l.name();
      previous_channels = l.conv().k;
    }
  }
}

TEST_P(GeneratorFuzz, SpatialSizesNeverGrow) {
  Rng rng(GetParam());
  const Network net = random_network(rng);
  std::int64_t previous = 1 << 20;
  for (const auto& l : net.layers()) {
    if (!l.is_conv()) continue;
    EXPECT_LE(l.conv().ox, previous) << l.name();
    previous = std::max<std::int64_t>(1, l.conv().ox);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

}  // namespace
}  // namespace uld3d::nn
