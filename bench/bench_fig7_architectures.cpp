// Reproduces Fig. 7: energy & delay benefits of iso-footprint M3D for the
// six Table-II accelerator architectures on AlexNet, evaluated both by the
// ZigZag-style mapper ("ZZ") and by the paper's analytical framework.
//
// Paper reference: EDP benefits 5.3x-11.5x; analytical within 10% of ZigZag.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <vector>

#include "uld3d/core/edp_model.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/util/bench.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/math.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/table.hpp"

namespace {

/// Analytical Sec.-III evaluation of one Table-II architecture, mirroring
/// the design point the mapper prices (same N, bandwidth, energies).
uld3d::core::EdpResult analytical_benefit(const uld3d::nn::Network& net,
                                          const uld3d::mapper::Architecture& arch,
                                          const uld3d::mapper::SystemCosts& sys,
                                          std::int64_t n_cs) {
  using namespace uld3d;
  core::Chip2d c2;
  c2.bandwidth_bits_per_cycle = arch.rram_bandwidth_bits_per_cycle;
  c2.peak_ops_per_cycle = 2.0 * static_cast<double>(arch.spatial.total_pes());
  c2.alpha_pj_per_bit = arch.rram_read_pj_per_bit;
  c2.compute_pj_per_op = arch.mac_energy_pj / 2.0;
  c2.cs_idle_pj_per_cycle = sys.cs_idle_pj_per_cycle;
  c2.mem_idle_pj_per_cycle = sys.mem_idle_pj_per_cycle;

  core::Chip3d c3;
  c3.parallel_cs = n_cs;
  c3.bandwidth_bits_per_cycle =
      c2.bandwidth_bits_per_cycle * static_cast<double>(n_cs);
  c3.alpha_pj_per_bit = c2.alpha_pj_per_bit * sys.m3d_access_energy_scale;
  c3.mem_idle_pj_per_cycle =
      c2.mem_idle_pj_per_cycle *
      (1.0 + sys.extra_bank_idle_fraction * static_cast<double>(n_cs - 1));

  core::TrafficOptions traffic;
  core::PartitionOptions part;
  part.array_cols = arch.spatial.k;
  part.array_rows = arch.spatial.c;
  part.spatial_ox = arch.spatial.ox;
  part.spatial_oy = arch.spatial.oy;
  part.channel_tap_packing = false;
  part.hybrid_pixel_partition = true;  // the mapper explores hybrid splits

  std::vector<core::EdpResult> per_layer;
  for (const auto& w : core::layer_workloads(net, traffic, part)) {
    per_layer.push_back(core::evaluate_edp(w, c2, c3));
  }
  return core::combine_results(per_layer);
}

struct ArchRow {
  std::string name;
  uld3d::mapper::DesignPointBenefit zz;
  uld3d::core::EdpResult model;
  double diff = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace uld3d;
  bench::Harness h("fig7_architectures", argc, argv);
  const auto pdk = tech::FoundryM3dPdk::make_130nm();
  const nn::Network net = nn::make_alexnet();
  const mapper::SystemCosts sys;

  // Per-architecture fan-out into pre-sized slots: the rows are
  // bit-identical at any jobs count, so the jobs=1 section keeps its
  // baseline meaning while the jobs=4 section measures the speedup.  The
  // mapping cache is off while timing — cross-iteration hits would fake
  // the parallel time.
  const auto archs = mapper::table2_architectures();
  const auto evaluate_all = [&](int jobs) {
    std::vector<ArchRow> out(archs.size());
    parallel::parallel_for_indexed(
        archs.size(),
        [&](std::size_t i) {
          ArchRow row;
          row.name = archs[i].name;
          row.zz = mapper::evaluate_benefit(net, archs[i], sys, pdk);
          row.model = analytical_benefit(net, archs[i], sys, row.zz.n_cs);
          row.diff =
              relative_difference(row.model.edp_benefit, row.zz.edp_benefit);
          out[i] = std::move(row);
        },
        {.jobs = jobs});
    return out;
  };
  mapper::MapCache& cache = mapper::MapCache::instance();
  cache.set_enabled(false);
  const auto rows =
      h.time("evaluate_architectures", [&] { return evaluate_all(1); });
  (void)h.time("evaluate_architectures_jobs4",
               [&] { return evaluate_all(4); });
  cache.set_enabled(true);

  Table table({"Architecture", "N", "ZZ speedup", "ZZ energy", "ZZ EDP",
               "Model speedup", "Model EDP", "|diff|"});
  double worst_diff = 0.0;
  for (const auto& row : rows) {
    worst_diff = std::max(worst_diff, row.diff);
    table.add_row({row.name, std::to_string(row.zz.n_cs),
                   format_ratio(row.zz.speedup),
                   format_ratio(row.zz.energy_ratio, 3),
                   format_ratio(row.zz.edp_benefit),
                   format_ratio(row.model.speedup),
                   format_ratio(row.model.edp_benefit),
                   format_double(row.diff * 100.0, 1) + "%"});
    std::string slug = row.name;
    std::transform(slug.begin(), slug.end(), slug.begin(),
                   [](unsigned char c) {
                     return std::isalnum(c) ? std::tolower(c) : '_';
                   });
    h.value(slug + "_zz_edp_benefit", row.zz.edp_benefit, "ratio");
  }
  emit_table(std::cout, table,
              "Fig. 7: Table-II architectures on AlexNet, ZigZag-style mapper "
              "vs analytical model (paper: 5.3x-11.5x EDP, <=10% apart)", "fig7_architectures");
  std::cout << "Worst model-vs-mapper difference: "
            << format_double(worst_diff * 100.0, 1) << "% (paper: <10%)\n";

  h.value("worst_model_vs_mapper_diff", worst_diff, "fraction");

  // --- mapping-cache hit rate (fidelity): the 6-arch workload twice over a
  //     cold cache, serial so the hit/miss sequence is reproducible.  The
  //     first pass seeds, the second is answered from the cache. ---
  cache.clear();
  cache.reset_counters();
  parallel::set_jobs(1);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& arch : archs) {
      (void)mapper::evaluate_benefit(net, arch, sys, pdk);
    }
  }
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  h.value("mapcache_two_pass_hit_rate",
          lookups > 0.0 ? static_cast<double>(cache.hits()) / lookups : 0.0,
          "fraction");
  parallel::set_jobs(0);

  // Advisory jobs=4 / jobs=1 time of the architecture fan-out (≈1 on a
  // single-core host; see EXPERIMENTS.md), lower-is-better as the timing
  // gate assumes.
  const double t1 = h.stats("evaluate_architectures").median_s;
  const double t4 = h.stats("evaluate_architectures_jobs4").median_s;
  if (t1 > 0.0 && t4 > 0.0) {
    h.timing_value("parallel_arch_time_ratio_jobs4", t4 / t1, "ratio");
  }
  return h.finish();
}
