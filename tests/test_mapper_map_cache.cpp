#include "uld3d/mapper/map_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/parallel.hpp"

namespace uld3d::mapper {
namespace {

/// Every test starts from an empty, enabled cache with zeroed counters and
/// leaves the global state (cache, jobs) as it found it.
class MapCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MapCache::instance().set_enabled(true);
    MapCache::instance().clear();
    MapCache::instance().reset_counters();
    parallel::set_jobs(0);
  }
  void TearDown() override {
    MapCache::instance().set_enabled(true);
    MapCache::instance().clear();
    MapCache::instance().reset_counters();
    parallel::set_jobs(0);
  }
};

nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                  std::int64_t fx, const std::string& name = "c") {
  nn::ConvSpec s;
  s.name = name;
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = ox;
  s.fx = fx;
  s.fy = fx;
  s.stride = 1;
  return s;
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void expect_costs_identical(const LayerCost& a, const LayerCost& b) {
  EXPECT_EQ(a.layer, b.layer);
  EXPECT_EQ(a.mapping_order, b.mapping_order);
  EXPECT_EQ(a.cs_used, b.cs_used);
  EXPECT_TRUE(bits_equal(a.utilization, b.utilization));
  EXPECT_TRUE(bits_equal(a.compute_cycles, b.compute_cycles));
  EXPECT_TRUE(bits_equal(a.rram_cycles, b.rram_cycles));
  EXPECT_TRUE(bits_equal(a.latency_cycles, b.latency_cycles));
  EXPECT_TRUE(bits_equal(a.mac_energy_pj, b.mac_energy_pj));
  EXPECT_TRUE(bits_equal(a.buffer_energy_pj, b.buffer_energy_pj));
  EXPECT_TRUE(bits_equal(a.rram_energy_pj, b.rram_energy_pj));
  EXPECT_TRUE(bits_equal(a.idle_energy_pj, b.idle_energy_pj));
  EXPECT_TRUE(bits_equal(a.energy_pj, b.energy_pj));
}

TEST_F(MapCacheTest, SecondEvaluationHitsAndMatchesBitwise) {
  const auto arch = make_table2_architecture(1);
  const nn::ConvSpec c = conv(256, 96, 27, 5);
  const LayerCost cold = evaluate_conv(c, arch, {}, 4);
  const std::uint64_t misses_after_cold = MapCache::instance().misses();
  EXPECT_GT(misses_after_cold, 0u);
  EXPECT_EQ(MapCache::instance().hits(), 0u);
  const LayerCost warm = evaluate_conv(c, arch, {}, 4);
  EXPECT_EQ(MapCache::instance().hits(), 1u);
  EXPECT_EQ(MapCache::instance().misses(), misses_after_cold);
  expect_costs_identical(cold, warm);
}

TEST_F(MapCacheTest, HitPatchesInTheCallersLayerName) {
  // Same shape under two names: one cached pricing, two correct labels.
  const auto arch = make_table2_architecture(1);
  const LayerCost first = evaluate_conv(conv(128, 64, 14, 3, "convA"),
                                        arch, {}, 2);
  const LayerCost second = evaluate_conv(conv(128, 64, 14, 3, "convB"),
                                         arch, {}, 2);
  EXPECT_EQ(first.layer, "convA");
  EXPECT_EQ(second.layer, "convB");
  EXPECT_EQ(MapCache::instance().hits(), 1u);
  EXPECT_TRUE(bits_equal(first.energy_pj, second.energy_pj));
  EXPECT_TRUE(bits_equal(first.latency_cycles, second.latency_cycles));
}

TEST_F(MapCacheTest, CacheOffMatchesCacheOnBitwise) {
  const auto arch = make_table2_architecture(2);
  const nn::ConvSpec c = conv(512, 256, 28, 3);
  const LayerCost on_cold = evaluate_conv(c, arch, {}, 8);
  const LayerCost on_warm = evaluate_conv(c, arch, {}, 8);
  MapCache::instance().set_enabled(false);
  const LayerCost off = evaluate_conv(c, arch, {}, 8);
  expect_costs_identical(on_cold, off);
  expect_costs_identical(on_warm, off);
}

TEST_F(MapCacheTest, KeyDiscriminatesEveryInput) {
  const auto arch = make_table2_architecture(1);
  const nn::ConvSpec c = conv(64, 32, 7, 3);
  const SystemCosts sys;
  const MapCache::Key base = MapCache::key(c, arch, sys, 4);

  EXPECT_EQ(MapCache::key(conv(64, 32, 7, 3, "other"), arch, sys, 4), base)
      << "names must not affect the key";
  EXPECT_NE(MapCache::key(conv(65, 32, 7, 3), arch, sys, 4), base);
  EXPECT_NE(MapCache::key(c, arch, sys, 8), base) << "n_cs is a key input";

  SystemCosts tweaked = sys;
  tweaked.m3d_access_energy_scale += 1e-12;
  EXPECT_NE(MapCache::key(c, arch, tweaked, 4), base)
      << "system costs are key inputs down to the last bit";

  Architecture wider = arch;
  wider.mac_energy_pj += 1e-12;
  EXPECT_NE(MapCache::key(c, wider, sys, 4), base);

  Architecture renamed = arch;
  renamed.name = "same numbers, new name";
  EXPECT_EQ(MapCache::key(c, renamed, sys, 4), base);
}

TEST_F(MapCacheTest, ClearDropsEntriesButKeepsCounters) {
  const auto arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 7, 3), arch, {}, 1);
  EXPECT_GT(MapCache::instance().size(), 0u);
  const std::uint64_t misses = MapCache::instance().misses();
  MapCache::instance().clear();
  EXPECT_EQ(MapCache::instance().size(), 0u);
  EXPECT_EQ(MapCache::instance().misses(), misses);
  MapCache::instance().reset_counters();
  EXPECT_EQ(MapCache::instance().misses(), 0u);
}

TEST_F(MapCacheTest, SearchedNetworkIdenticalAcrossJobsAndCacheModes) {
  // The full searched-network pipeline — per-layer fan-out, per-unrolling
  // fan-out, cost memoization — must be invisible in the numbers: any jobs
  // count, cache on or off, the totals and every per-layer cost match the
  // serial cache-off run bitwise.
  const nn::Network net = nn::make_alexnet();
  const auto arch = make_table2_architecture(1);

  MapCache::instance().set_enabled(false);
  parallel::set_jobs(1);
  const SearchedNetworkCost ref =
      evaluate_network_with_search(net, arch, {}, 4);

  struct Mode {
    bool cache;
    int jobs;
  };
  for (const Mode mode : {Mode{true, 1}, Mode{false, 8}, Mode{true, 8}}) {
    MapCache::instance().set_enabled(mode.cache);
    MapCache::instance().clear();
    parallel::set_jobs(mode.jobs);
    const SearchedNetworkCost got =
        evaluate_network_with_search(net, arch, {}, 4);
    EXPECT_TRUE(bits_equal(got.fixed.latency_cycles, ref.fixed.latency_cycles))
        << "cache=" << mode.cache << " jobs=" << mode.jobs;
    EXPECT_TRUE(bits_equal(got.fixed.energy_pj, ref.fixed.energy_pj));
    EXPECT_TRUE(
        bits_equal(got.searched.latency_cycles, ref.searched.latency_cycles))
        << "cache=" << mode.cache << " jobs=" << mode.jobs;
    EXPECT_TRUE(bits_equal(got.searched.energy_pj, ref.searched.energy_pj))
        << "cache=" << mode.cache << " jobs=" << mode.jobs;
    ASSERT_EQ(got.searched.layers.size(), ref.searched.layers.size());
    for (std::size_t i = 0; i < ref.searched.layers.size(); ++i) {
      expect_costs_identical(got.searched.layers[i], ref.searched.layers[i]);
    }
  }
}

TEST_F(MapCacheTest, SearchPricesCandidatesOutsideTheCache) {
  // The search prices its candidate unrollings uncached; only the fixed
  // dataflow (evaluate_network, then the search's baseline) is memoized, so
  // a cold pass leaves one entry per conv layer (AlexNet's shapes are all
  // distinct) and a second pass is answered entirely from the cache.
  const nn::Network net = nn::make_alexnet();
  const auto arch = make_table2_architecture(1);
  std::size_t conv_layers = 0;
  for (const auto& layer : net.layers()) {
    if (layer.is_conv()) ++conv_layers;
  }
  ASSERT_EQ(conv_layers, 8u);
  (void)evaluate_network_with_search(net, arch, {}, 4);
  EXPECT_EQ(MapCache::instance().size(), conv_layers);
  EXPECT_EQ(MapCache::instance().misses(), conv_layers);
  EXPECT_EQ(MapCache::instance().hits(), conv_layers);
  MapCache::instance().reset_counters();
  (void)evaluate_network_with_search(net, arch, {}, 4);
  EXPECT_EQ(MapCache::instance().misses(), 0u)
      << "second pass must be fully cached";
  EXPECT_EQ(MapCache::instance().size(), conv_layers);
}

}  // namespace
}  // namespace uld3d::mapper
