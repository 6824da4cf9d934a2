// PERF: cross-run computation reuse (DESIGN.md §17).  A fig7-style
// capacity x CS-count sweep priced through the temporal mapper, run in
// three configurations:
//
//   no-reuse   no dedup, no store — every alias re-searched (the spatial
//              search's best-first pruning is part of the search and runs
//              in all three configurations).
//   first run  full reuse stack against an EMPTY store (dedup collapses the
//              evaluator-blind "budget" axis, and the run persists its map
//              cache on exit).
//   re-run     full reuse stack against the store the first run wrote:
//              every fixed-dataflow pricing is answered from the file.
//
// Only the fixed dataflow goes through the MapCache: the search prices its
// candidate unrollings uncached (a probe costs about as much as the pricing,
// DESIGN.md §10), so the store holds one entry per (layer shape, design
// point) and the budget aliases of the no-reuse run re-price every candidate.
//
// The reuse layer is a pure optimization, so all three configurations must
// produce BIT-identical rows — that identity, the re-run's miss count (0)
// and file-hit fraction (1), and the fidelity checksum are the hard gates.
// Timing values (advisory, host-dependent, lower is better as the timing
// gate assumes): the three medians, warm re-run / no-reuse, first run /
// no-reuse, and warm / first run, which isolates the persistent store's own
// contribution.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "uld3d/dse/sweep.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/map_cache_file.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/tech/pdk.hpp"
#include "uld3d/util/bench.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/status.hpp"

namespace {

uld3d::nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                         std::int64_t fx, const char* name) {
  uld3d::nn::ConvSpec s;
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
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool rows_bit_identical(const std::vector<uld3d::dse::SweepRow>& a,
                        const std::vector<uld3d::dse::SweepRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].grid_index != b[i].grid_index) return false;
    if (a[i].ok() != b[i].ok()) return false;
    if (a[i].metrics.size() != b[i].metrics.size()) return false;
    for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
      if (!bits_equal(a[i].metrics[m], b[i].metrics[m])) return false;
    }
  }
  return true;
}

/// Fidelity checksum: the sum of every finite metric value (failed rows
/// carry NaN metrics, which must not poison the gate).
double metric_checksum(const std::vector<uld3d::dse::SweepRow>& rows) {
  double sum = 0.0;
  for (const auto& row : rows) {
    if (!row.ok()) continue;
    for (const double v : row.metrics) {
      if (std::isfinite(v)) sum += v;
    }
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uld3d;
  bench::Harness h("sweep_reuse", argc, argv);
  const auto pdk = tech::FoundryM3dPdk::make_130nm();
  const mapper::SystemCosts sys;
  mapper::MapCache& cache = mapper::MapCache::instance();
  cache.set_enabled(true);

  // The fig7 grid (capacity x CS count) crossed with an evaluator-BLIND
  // thermal-budget axis, as in the paper's budget studies (fig9/10 sweep
  // 2..20 W in 2 W steps): 200 points, 20 unique mappings, 10 aliases
  // each.  Dedup collapses the blind axis; the no-reuse baseline pays for
  // every alias.
  dse::Grid grid;
  grid.axis("capacity_mb", {8.0, 16.0, 32.0, 64.0, 128.0})
      .axis("n_cs", {1.0, 2.0, 4.0, 16.0})
      .axis("budget_w",
            {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0});

  // Mapper-heavy pricing: a full spatial search (hundreds of temporal-mapper
  // pricings; only the fixed-dataflow baseline is a MapCache entry) over two
  // contrasting layer shapes.
  const nn::ConvSpec conv1 = conv(96, 3, 55, 11, "conv1");
  const nn::ConvSpec conv_mid = conv(256, 96, 27, 5, "conv_mid");
  const auto evaluate = [&](const std::vector<double>& p) {
    mapper::Architecture arch = mapper::make_table2_architecture(1);
    arch.rram_capacity_bits = p[0] * 8.0 * 1024.0 * 1024.0;
    const auto n = static_cast<std::int64_t>(p[1]);
    const std::int64_t n_geom = mapper::m3d_parallel_cs(arch, pdk);
    if (n > n_geom) {
      throw StatusError(
          Failure(ErrorCode::kInfeasiblePoint, "CS count does not fit")
              .with("n_cs", n)
              .with("n_geom", n_geom));
    }
    const mapper::SpatialSearchResult r1 =
        mapper::search_spatial(conv1, arch, sys, n);
    const mapper::SpatialSearchResult r2 =
        mapper::search_spatial(conv_mid, arch, sys, n);
    return std::vector<double>{
        (r1.cost.latency_cycles * r1.cost.energy_pj +
         r2.cost.latency_cycles * r2.cost.energy_pj) /
            1.0e12,
        r1.improvement() * r2.improvement()};
  };
  // Canonical key over exactly the inputs the evaluator reads (not budget_w).
  const auto point_key = [](const std::vector<double>& p) {
    char buffer[80];
    std::snprintf(buffer, sizeof buffer, "%.17g,%.17g", p[0], p[1]);
    return std::string(buffer);
  };
  const std::vector<std::string> metrics{"searched_edp", "mapping_gain"};
  dse::SweepOptions options;
  options.point_key = point_key;

  const char* bench_dir = std::getenv("ULD3D_BENCH_DIR");
  const std::string store =
      (bench_dir != nullptr && *bench_dir != '\0' ? std::string(bench_dir)
                                                  : std::string(".")) +
      "/mapcache_sweep_reuse.bin";

  // --- no-reuse baseline ----------------------------------------------------
  // Dedup off (no point_key), no store.  (The in-memory MapCache stays on:
  // it predates the reuse layer, so the baseline keeps it.)
  const dse::SweepResult baseline = h.time("baseline_sweep", [&] {
    cache.clear();
    return run_sweep(grid, metrics, evaluate, {});
  });

  // --- first run: full reuse stack, empty store; save rebuilds the file ----
  const dse::SweepResult cold = h.time("cold_sweep", [&] {
    std::remove(store.c_str());
    cache.clear();
    dse::SweepResult r = run_sweep(grid, metrics, evaluate, options);
    (void)mapper::save_map_cache_file(store);
    return r;
  });

  // --- re-run: empty in-memory cache, every cached pricing from the file ---
  const dse::SweepResult warm = h.time("warm_sweep", [&] {
    cache.clear();
    (void)mapper::load_map_cache_file(store);
    return run_sweep(grid, metrics, evaluate, options);
  });

  // --- one counted warm re-run for the reuse counters ----------------------
  cache.clear();
  cache.reset_counters();
  (void)mapper::load_map_cache_file(store);
  (void)run_sweep(grid, metrics, evaluate, options);
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  const double warm_misses = static_cast<double>(cache.misses());
  const double file_hits = static_cast<double>(cache.file_hits());
  std::remove(store.c_str());

  const double t_base = h.stats("baseline_sweep").median_s;
  const double t_cold = h.stats("cold_sweep").median_s;
  const double t_warm = h.stats("warm_sweep").median_s;

  Table table({"Run", "Median (ms)", "Speedup"});
  table.add_row({"no reuse (no dedup, no store)",
                 format_double(t_base * 1e3, 2), "1.0"});
  table.add_row({"first run (builds store)", format_double(t_cold * 1e3, 2),
                 t_cold > 0.0 ? format_ratio(t_base / t_cold) : "-"});
  table.add_row({"re-run (warm store)", format_double(t_warm * 1e3, 2),
                 t_warm > 0.0 ? format_ratio(t_base / t_warm) : "-"});
  emit_table(std::cout, table,
             "Cross-run reuse: fig7-style mapper sweep without the reuse "
             "layer, with it (cold store), and re-run against the warm "
             "store (rows bit-identical in all three)",
             "sweep_reuse");

  // Hard gates: reuse must never change a value.
  h.value("rows_bit_identical_warm",
          rows_bit_identical(cold.rows(), warm.rows()) ? 1.0 : 0.0, "flag");
  h.value("rows_bit_identical_reuse_off",
          rows_bit_identical(cold.rows(), baseline.rows()) ? 1.0 : 0.0,
          "flag");
  h.value("warm_misses", warm_misses, "count");
  h.value("warm_file_hit_fraction", lookups > 0.0 ? file_hits / lookups : 0.0,
          "fraction");
  h.value("metric_checksum", metric_checksum(cold.rows()), "sum");
  h.value("ok_points", static_cast<double>(cold.ok_count()), "count");

  // Advisory timing, as time ratios so that lower is better (the timing
  // gate fails a value only when it rises); warm_vs_cold isolates the
  // persistent store alone.
  if (t_base > 0.0 && t_cold > 0.0 && t_warm > 0.0) {
    h.timing_value("warm_time_ratio", t_warm / t_base, "ratio");
    h.timing_value("first_run_time_ratio", t_cold / t_base, "ratio");
    h.timing_value("warm_vs_cold_time_ratio", t_warm / t_cold, "ratio");
  }
  return h.finish();
}
