// Differential suite for the SoA batch candidate evaluation (PR: data-
// oriented batch kernels).  The contract under test: batch-on (AVX2),
// batch-on with forced-scalar kernels, and the seed scalar loop
// (`set_batch_eval_enabled(false)`, the ULD3D_NO_SIMD path) all pick the
// same winning mapping and return byte-identical LayerCost/NetworkCost —
// across randomized layer shapes, jobs counts, cache modes, and
// denormal/overflow edge cases.
#include "uld3d/mapper/batch_eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/simd.hpp"

namespace uld3d::mapper {
namespace {

/// Restores every global knob the suite touches: batch flag, SIMD override,
/// cache, jobs.
class BatchEvalTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    set_batch_eval_enabled(true);
    simd::set_force_scalar(false);
    MapCache::instance().set_enabled(true);
    MapCache::instance().clear();
    parallel::set_jobs(0);
  }
};

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

nn::ConvSpec random_conv(Rng& rng, int i) {
  nn::ConvSpec s;
  s.name = "conv" + std::to_string(i);
  s.k = static_cast<std::int64_t>(1 + rng.below(512));
  s.c = static_cast<std::int64_t>(1 + rng.below(512));
  s.ox = static_cast<std::int64_t>(1 + rng.below(112));
  s.oy = static_cast<std::int64_t>(1 + rng.below(112));
  s.fx = static_cast<std::int64_t>(1 + rng.below(7));
  s.fy = static_cast<std::int64_t>(1 + rng.below(7));
  s.stride = static_cast<std::int64_t>(1 + rng.below(2));
  return s;
}

/// The naive reference: an independent copy of the seed argmin loop over
/// price_candidate_scalar, deliberately NOT sharing any code with
/// evaluate_candidates.
LayerCost naive_best(const nn::ConvSpec& conv, const Architecture& arch,
                     const SystemCosts& sys, std::int64_t n_cs) {
  const auto candidates = candidate_mappings(conv, arch);
  LayerCost best;
  best.layer = conv.name;
  double best_edp = std::numeric_limits<double>::infinity();
  for (const auto& m : candidates) {
    LayerCost c = price_candidate_scalar(conv, m, arch, sys, n_cs);
    const double edp = c.latency_cycles * c.energy_pj;
    if (edp < best_edp) {
      best_edp = edp;
      best = c;
    }
  }
  return best;
}

TEST_F(BatchEvalTest, RandomizedDifferentialAgainstNaiveReference) {
  Rng rng(20260808);
  const auto arch = make_table2_architecture(1);
  CandidateBatch scratch;
  for (int i = 0; i < 200; ++i) {
    const nn::ConvSpec c = random_conv(rng, i);
    const std::int64_t n_cs = static_cast<std::int64_t>(1 + rng.below(16));
    const auto candidates = candidate_mappings(c, arch);

    const LayerCost ref = naive_best(c, arch, {}, n_cs);
    const LayerCost batch =
        evaluate_candidates(c, candidates, arch, {}, n_cs, scratch);
    expect_costs_identical(batch, ref);

    simd::set_force_scalar(true);
    const LayerCost scalar_kernels =
        evaluate_candidates(c, candidates, arch, {}, n_cs, scratch);
    simd::set_force_scalar(false);
    expect_costs_identical(scalar_kernels, ref);
  }
}

TEST_F(BatchEvalTest, EvaluateConvIdenticalAcrossAllThreeModes) {
  // Modes: batch+SIMD (default), batch+forced-scalar kernels, and the seed
  // scalar loop (what ULD3D_NO_SIMD selects at startup).
  Rng rng(42);
  const auto arch = make_table2_architecture(2);
  MapCache::instance().set_enabled(false);
  for (int i = 0; i < 100; ++i) {
    const nn::ConvSpec c = random_conv(rng, i);
    const std::int64_t n_cs = static_cast<std::int64_t>(1 + rng.below(64));

    set_batch_eval_enabled(true);
    simd::set_force_scalar(false);
    const LayerCost simd_cost = evaluate_conv(c, arch, {}, n_cs);

    simd::set_force_scalar(true);
    const LayerCost scalar_cost = evaluate_conv(c, arch, {}, n_cs);
    simd::set_force_scalar(false);

    set_batch_eval_enabled(false);
    const LayerCost seed_cost = evaluate_conv(c, arch, {}, n_cs);
    set_batch_eval_enabled(true);

    expect_costs_identical(simd_cost, seed_cost);
    expect_costs_identical(scalar_cost, seed_cost);
  }
}

TEST_F(BatchEvalTest, NetworkCostIdenticalAcrossJobsCacheAndBatchModes) {
  // The full network evaluation must be mode-invariant: batch on/off x
  // cache on/off x jobs {1, 8} all reproduce the serial seed run bitwise.
  const nn::Network net = nn::make_alexnet();
  const auto arch = make_table2_architecture(1);

  set_batch_eval_enabled(false);
  MapCache::instance().set_enabled(false);
  parallel::set_jobs(1);
  const NetworkCost ref = evaluate_network(net, arch, {}, 4);

  struct Mode {
    bool batch;
    bool cache;
    int jobs;
  };
  for (const Mode mode :
       {Mode{true, false, 1}, Mode{true, true, 1}, Mode{true, false, 8},
        Mode{true, true, 8}, Mode{false, true, 8}}) {
    set_batch_eval_enabled(mode.batch);
    MapCache::instance().set_enabled(mode.cache);
    MapCache::instance().clear();
    parallel::set_jobs(mode.jobs);
    const NetworkCost got = evaluate_network(net, arch, {}, 4);
    EXPECT_TRUE(bits_equal(got.latency_cycles, ref.latency_cycles))
        << "batch=" << mode.batch << " cache=" << mode.cache
        << " jobs=" << mode.jobs;
    EXPECT_TRUE(bits_equal(got.energy_pj, ref.energy_pj))
        << "batch=" << mode.batch << " cache=" << mode.cache
        << " jobs=" << mode.jobs;
    ASSERT_EQ(got.layers.size(), ref.layers.size());
    for (std::size_t i = 0; i < ref.layers.size(); ++i) {
      expect_costs_identical(got.layers[i], ref.layers[i]);
    }
  }
}

TEST_F(BatchEvalTest, SpatialSearchWinnerIdenticalAcrossModes) {
  // The spatial search multiplies candidate volume ~100x (every unrolling
  // prices every temporal candidate) — the hot path the SoA kernels target.
  const auto arch = make_table2_architecture(1);
  nn::ConvSpec c;
  c.name = "sweep";
  c.k = 384;
  c.c = 256;
  c.ox = 13;
  c.oy = 13;
  c.fx = 3;
  c.fy = 3;
  c.stride = 1;
  MapCache::instance().set_enabled(false);

  set_batch_eval_enabled(false);
  const SpatialSearchResult seed = search_spatial(c, arch, {}, 8);
  set_batch_eval_enabled(true);
  const SpatialSearchResult batch = search_spatial(c, arch, {}, 8);

  EXPECT_EQ(batch.best.k, seed.best.k);
  EXPECT_EQ(batch.best.c, seed.best.c);
  EXPECT_EQ(batch.best.ox, seed.best.ox);
  EXPECT_EQ(batch.best.oy, seed.best.oy);
  expect_costs_identical(batch.cost, seed.cost);
}

/// Denormal quotients and overflowing products, the same (RRAM bandwidth,
/// MAC energy) extremes test_mapper_spatial_search's differential takes.
struct Extreme {
  double rram_bw;
  double mac_energy;
};
constexpr Extreme kExtremes[] = {
    {1e300, 1e-310}, {5e-324, 1e308}, {1e-300, 1e300}};

nn::ConvSpec extreme_conv() {
  nn::ConvSpec c;
  c.name = "extreme";
  c.k = 512;
  c.c = 512;
  c.ox = 56;
  c.oy = 56;
  c.fx = 3;
  c.fy = 3;
  c.stride = 1;
  return c;
}

TEST_F(BatchEvalTest, DenormalAndOverflowEdgeCasesStayIdentical) {
  // Push the arithmetic into denormal quotients and overflowing products:
  // the kernels must not diverge from the scalar trees even at the extremes
  // of the double range.
  const auto base = make_table2_architecture(1);
  CandidateBatch scratch;
  const nn::ConvSpec c = extreme_conv();
  for (const Extreme& e : kExtremes) {
    Architecture arch = base;
    arch.rram_bandwidth_bits_per_cycle = e.rram_bw;
    arch.mac_energy_pj = e.mac_energy;
    const auto candidates = candidate_mappings(c, arch);
    const LayerCost ref = naive_best(c, arch, {}, 8);
    const LayerCost batch =
        evaluate_candidates(c, candidates, arch, {}, 8, scratch);
    expect_costs_identical(batch, ref);

    simd::set_force_scalar(true);
    const LayerCost scalar =
        evaluate_candidates(c, candidates, arch, {}, 8, scratch);
    simd::set_force_scalar(false);
    expect_costs_identical(scalar, ref);
  }
}

TEST_F(BatchEvalTest, OverflowedLayerIsNamedOnMissHitAndScalarLoop) {
  // When every temporal mapping overflows, price_conv returns its zero
  // "nothing beat +inf" cost.  A MapCache miss, a hit and the seed scalar
  // loop must return it field for field alike, under the caller's name.
  const auto base = make_table2_architecture(1);
  const nn::ConvSpec c = extreme_conv();
  MapCache& cache = MapCache::instance();
  int overflowed = 0;
  for (const Extreme& e : kExtremes) {
    Architecture arch = base;
    arch.rram_bandwidth_bits_per_cycle = e.rram_bw;
    arch.mac_energy_pj = e.mac_energy;
    cache.clear();
    const LayerCost miss = evaluate_conv(c, arch, {}, 8);
    const std::uint64_t hits = cache.hits();
    const LayerCost hit = evaluate_conv(c, arch, {}, 8);
    EXPECT_EQ(cache.hits(), hits + 1);
    set_batch_eval_enabled(false);
    const LayerCost scalar_loop = price_conv(c, arch, {}, 8);
    set_batch_eval_enabled(true);

    EXPECT_EQ(miss.layer, c.name);
    expect_costs_identical(hit, miss);
    expect_costs_identical(scalar_loop, miss);
    if (miss.mapping_order.empty()) ++overflowed;
  }
  EXPECT_GT(overflowed, 0) << "no extreme reached the nothing-beat result";
}

TEST_F(BatchEvalTest, EmptyCandidateListYieldsDefaultCost) {
  const auto arch = make_table2_architecture(1);
  CandidateBatch scratch;
  const std::vector<TemporalMapping> none;
  nn::ConvSpec c;
  c.name = "none";
  const LayerCost cost = evaluate_candidates(c, none, arch, {}, 1, scratch);
  EXPECT_EQ(cost.layer, "none");
  EXPECT_TRUE(cost.mapping_order.empty());
  EXPECT_TRUE(bits_equal(cost.energy_pj, 0.0));
}

TEST_F(BatchEvalTest, ScratchReuseDoesNotLeakStateAcrossCalls) {
  // A big batch followed by a small one: the ratcheted arrays must not let
  // stale tail values influence the small batch's argmin.
  const auto arch = make_table2_architecture(1);
  CandidateBatch scratch;
  Rng rng(7);
  const nn::ConvSpec big = random_conv(rng, 0);
  const auto big_candidates = candidate_mappings(big, arch);
  (void)evaluate_candidates(big, big_candidates, arch, {}, 16, scratch);

  const nn::ConvSpec small = random_conv(rng, 1);
  const auto small_candidates = candidate_mappings(small, arch);
  const LayerCost got =
      evaluate_candidates(small, small_candidates, arch, {}, 2, scratch);
  expect_costs_identical(got, naive_best(small, arch, {}, 2));
}

}  // namespace
}  // namespace uld3d::mapper
