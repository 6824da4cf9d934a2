#include "uld3d/mapper/spatial_search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "reference/exhaustive_spatial_search.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::mapper {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                  std::int64_t fx) {
  nn::ConvSpec s;
  s.name = "c";
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = ox;
  s.fx = fx;
  s.fy = fx;
  s.stride = 1;
  return s;
}

TEST(Enumerate, CountsCompositionsOfTheExponent) {
  // 2^n has C(n+3, 3) ordered power-of-two factorizations into 4 factors.
  EXPECT_EQ(enumerate_unrollings(1).size(), 1u);
  EXPECT_EQ(enumerate_unrollings(2).size(), 4u);
  EXPECT_EQ(enumerate_unrollings(1024).size(), 286u);  // C(13,3)
}

TEST(Enumerate, EveryUnrollingCoversTheBudget) {
  for (const auto& u : enumerate_unrollings(256)) {
    EXPECT_EQ(u.total_pes(), 256);
    EXPECT_GE(u.k, 1);
    EXPECT_GE(u.c, 1);
  }
}

TEST(Enumerate, RejectsNonPowerOfTwo) {
  EXPECT_THROW(enumerate_unrollings(100), PreconditionError);
  EXPECT_THROW(enumerate_unrollings(0), PreconditionError);
}

TEST(SpatialSearch, NeverWorseThanFixedDataflow) {
  const auto arch = make_table2_architecture(3);  // (32, 32)
  for (const auto& layer :
       {conv(96, 3, 55, 11), conv(256, 96, 27, 5), conv(512, 512, 7, 3)}) {
    const SpatialSearchResult r = search_spatial(layer, arch, {}, 8);
    EXPECT_GE(r.improvement(), 1.0 - 1e-9) << layer.name;
    EXPECT_EQ(r.candidates, 286u);
  }
}

TEST(SpatialSearch, SmallChannelLayerPrefersSpatialUnrolling) {
  // C = 3 wastes a (32, 32) channel-parallel array; the search must move
  // unrolling into OX/OY and beat it clearly.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r = search_spatial(conv(96, 3, 55, 11), arch, {}, 1);
  EXPECT_GT(r.improvement(), 2.0);
  EXPECT_LE(r.best.c, 4);                     // tiny C unrolling
  EXPECT_GT(r.best.ox * r.best.oy, 16);       // big spatial unrolling
}

TEST(SpatialSearch, WellMatchedLayerGainsLittle) {
  // A large square conv already fits the (32, 32) dataflow.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r =
      search_spatial(conv(512, 512, 14, 3), arch, {}, 1);
  EXPECT_LT(r.improvement(), 1.3);
}

TEST(SpatialSearch, NetworkSearchAggregates) {
  const auto arch = make_table2_architecture(3);
  const nn::Network net = nn::make_alexnet();
  const SearchedNetworkCost out = evaluate_network_with_search(net, arch, {}, 8);
  ASSERT_EQ(out.searched.layers.size(), net.size());
  EXPECT_GE(out.edp_improvement(), 1.0 - 1e-9);
  // AlexNet's CONV1 (C = 3) guarantees a real network-level win.
  EXPECT_GT(out.edp_improvement(), 1.05);
  // Vector layers are untouched by the search.
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (!net.layer(i).is_conv()) {
      EXPECT_DOUBLE_EQ(out.searched.layers[i].latency_cycles,
                       out.fixed.layers[i].latency_cycles);
    }
  }
}

// --- Best-first search against the exhaustive oracle ------------------------
//
// The bound's contract: the search may only skip PRICING candidates that
// provably cannot beat the incumbent — the winner, its cost, and the
// candidate count must be bit-identical to pricing every candidate.

bool costs_identical(const LayerCost& a, const LayerCost& b) {
  return a.layer == b.layer && a.mapping_order == b.mapping_order &&
         a.cs_used == b.cs_used &&
         bits_equal(a.latency_cycles, b.latency_cycles) &&
         bits_equal(a.compute_cycles, b.compute_cycles) &&
         bits_equal(a.rram_cycles, b.rram_cycles) &&
         bits_equal(a.energy_pj, b.energy_pj) &&
         bits_equal(a.mac_energy_pj, b.mac_energy_pj) &&
         bits_equal(a.buffer_energy_pj, b.buffer_energy_pj) &&
         bits_equal(a.rram_energy_pj, b.rram_energy_pj) &&
         bits_equal(a.idle_energy_pj, b.idle_energy_pj) &&
         bits_equal(a.utilization, b.utilization);
}

bool same_result(const SpatialSearchResult& a, const SpatialSearchResult& b) {
  return a.best.k == b.best.k && a.best.c == b.best.c &&
         a.best.ox == b.best.ox && a.best.oy == b.best.oy &&
         costs_identical(a.cost, b.cost) &&
         costs_identical(a.fixed_cost, b.fixed_cost) &&
         a.candidates == b.candidates;
}

TEST(SpatialPruneTest, WinnerAndCostBitIdenticalPruneOnVsOff) {
  // Several layer shapes x architectures x CS counts, including the
  // small-C layer where the search moves the most and prunes the hardest.
  for (const int arch_index : {1, 3}) {
    const auto arch = make_table2_architecture(arch_index);
    for (const auto& layer :
         {conv(96, 3, 55, 11), conv(256, 96, 27, 5), conv(512, 512, 7, 3)}) {
      for (const std::int64_t n_cs : {std::int64_t{1}, std::int64_t{8}}) {
        const SpatialSearchResult pruned =
            search_spatial(layer, arch, {}, n_cs);
        const SpatialSearchResult exhaustive =
            reference::exhaustive_spatial_search(layer, arch, {}, n_cs);
        EXPECT_TRUE(same_result(pruned, exhaustive))
            << "arch " << arch_index << ", k " << layer.k << ", n_cs "
            << n_cs;
        EXPECT_TRUE(
            bits_equal(pruned.improvement(), exhaustive.improvement()));
        EXPECT_GT(pruned.lb_pruned, 0u);
        EXPECT_EQ(exhaustive.lb_pruned, 0u);
      }
    }
  }
}

TEST(SpatialPruneTest, BadlyMatchedLayerActuallyPrunes) {
  // CONV1-like: most unrollings are far off the optimum, so the search
  // must stop after pricing a handful of the 286 candidates.
  const auto arch = make_table2_architecture(3);
  const SpatialSearchResult r = search_spatial(conv(96, 3, 55, 11), arch, {}, 1);
  EXPECT_EQ(r.candidates, 286u);
  EXPECT_LE(r.candidates - r.lb_pruned, 8u);
}

TEST(SpatialPruneTest, InvalidBoundPricesEveryCandidate) {
  // A negative idle energy breaks the bound's admissibility, so the search
  // falls back to pricing every candidate in enumeration order.
  const auto arch = make_table2_architecture(3);
  SystemCosts sys;
  sys.cs_idle_pj_per_cycle = -1.0;
  const nn::ConvSpec layer = conv(96, 3, 55, 11);
  const SpatialSearchResult r = search_spatial(layer, arch, sys, 1);
  EXPECT_EQ(r.lb_pruned, 0u);
  EXPECT_EQ(r.candidates, 286u);
  EXPECT_TRUE(same_result(
      r, reference::exhaustive_spatial_search(layer, arch, sys, 1)));
}

/// 0 one time in eight; otherwise log-uniform over six decades around
/// `typical`.
double random_cost(Rng& rng, double typical) {
  if (rng.below(8) == 0) return 0.0;
  return typical * std::pow(10.0, 6.0 * rng.uniform() - 3.0);
}

TEST(SpatialPruneTest, RandomizedDifferentialAgainstExhaustiveOracle) {
  // Random conv shapes, all six Table II architectures, 1-64 CSs and random
  // non-negative system costs; every tenth case also takes one of
  // test_mapper_batch_eval's denormal/overflow (RRAM bandwidth, MAC energy)
  // extremes.
  struct Extreme {
    double rram_bw;
    double mac_energy;
  };
  constexpr Extreme kExtremes[] = {
      {1e300, 1e-310}, {5e-324, 1e308}, {1e-300, 1e300}};
  constexpr int kCases = 12000;
  Rng rng(20261017);
  int mismatches = 0;
  std::size_t candidates = 0;
  std::size_t skipped = 0;
  for (int i = 0; i < kCases; ++i) {
    nn::ConvSpec c;
    c.name = "random";
    c.k = static_cast<std::int64_t>(1 + rng.below(1024));
    c.c = static_cast<std::int64_t>(1 + rng.below(1024));
    c.ox = static_cast<std::int64_t>(1 + rng.below(224));
    c.oy = rng.below(2) == 0 ? c.ox
                             : static_cast<std::int64_t>(1 + rng.below(224));
    c.fx = static_cast<std::int64_t>(1 + rng.below(11));
    c.fy = rng.below(2) == 0 ? c.fx
                             : static_cast<std::int64_t>(1 + rng.below(11));
    c.stride = static_cast<std::int64_t>(1 + rng.below(4));
    const int arch_index = static_cast<int>(1 + rng.below(6));
    Architecture arch = make_table2_architecture(arch_index);
    const auto n_cs = static_cast<std::int64_t>(1 + rng.below(64));
    SystemCosts sys;
    sys.mem_idle_pj_per_cycle = random_cost(rng, 10.0);
    sys.extra_bank_idle_fraction = random_cost(rng, 0.3);
    sys.cs_idle_pj_per_cycle = random_cost(rng, 2.0);
    sys.m3d_access_energy_scale = random_cost(rng, 0.97);
    sys.rram_write_occupancy = random_cost(rng, 4.0);
    if (i % 10 == 0) {
      const Extreme& e = kExtremes[rng.below(3)];
      arch.rram_bandwidth_bits_per_cycle = e.rram_bw;
      arch.mac_energy_pj = e.mac_energy;
    }

    // Both sides price the fixed baseline on a cache miss: a MapCache hit
    // renames price_conv's unnamed "nothing beat +inf" result, which the
    // overflow extremes produce, while a miss leaves it unnamed.
    MapCache::instance().clear();
    const SpatialSearchResult got = search_spatial(c, arch, sys, n_cs);
    MapCache::instance().clear();
    const SpatialSearchResult want =
        reference::exhaustive_spatial_search(c, arch, sys, n_cs);
    if (!same_result(got, want)) {
      ADD_FAILURE() << "case " << i << ": arch " << arch_index << ", conv "
                    << c.k << "x" << c.c << "x" << c.ox << "x" << c.oy
                    << " f " << c.fx << "x" << c.fy << " s" << c.stride
                    << ", n_cs " << n_cs << ": best (" << got.best.k << ","
                    << got.best.c << "," << got.best.ox << "," << got.best.oy
                    << ") vs (" << want.best.k << "," << want.best.c << ","
                    << want.best.ox << "," << want.best.oy << "), EDP "
                    << got.cost.latency_cycles * got.cost.energy_pj << " vs "
                    << want.cost.latency_cycles * want.cost.energy_pj;
      if (++mismatches == 10) break;
    }
    candidates += got.candidates;
    skipped += got.lb_pruned;
  }
  EXPECT_EQ(mismatches, 0);
  // The bound must do real work, not just stay admissible.
  EXPECT_GT(skipped, candidates / 2);
}
}  // namespace
}  // namespace uld3d::mapper
