#include "uld3d/mapper/spatial_search.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "uld3d/util/check.hpp"
#include "uld3d/util/fault.hpp"
#include "uld3d/util/math.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/telemetry.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::mapper {

namespace {

std::atomic<bool>& prune_flag() {
  static std::atomic<bool> enabled{[] {
    const char* env = std::getenv("ULD3D_NO_SPATIAL_PRUNE");
    return env == nullptr || *env == '\0';
  }()};
  return enabled;
}

/// The bound below is admissible only in the physically sane regime where
/// every energy-side parameter is non-negative (then energy >= MAC energy
/// term-by-term) and finite.  A negative or NaN parameter — possible in
/// adversarial configs — silently disables pruning instead of mis-pruning.
bool prune_bound_valid(const Architecture& arch, const SystemCosts& sys) {
  const auto ok = [](double v) { return std::isfinite(v) && v >= 0.0; };
  const auto buffers_ok = [&](const OperandBuffers& b) {
    return ok(b.reg.access_energy_pj_per_bit) &&
           ok(b.local.access_energy_pj_per_bit) &&
           ok(b.global.access_energy_pj_per_bit);
  };
  return buffers_ok(arch.weights) && buffers_ok(arch.inputs) &&
         buffers_ok(arch.outputs) && ok(arch.rram_read_pj_per_bit) &&
         ok(arch.rram_write_pj_per_bit) && ok(arch.mac_energy_pj) &&
         arch.weight_bits >= 0 && arch.activation_bits >= 0 &&
         arch.psum_bits >= 0 && ok(sys.mem_idle_pj_per_cycle) &&
         ok(sys.extra_bank_idle_fraction) && ok(sys.cs_idle_pj_per_cycle) &&
         ok(sys.m3d_access_energy_scale) && ok(sys.rram_write_occupancy);
}

}  // namespace

bool spatial_prune_enabled() {
  return prune_flag().load(std::memory_order_relaxed);
}

void set_spatial_prune_enabled(bool enabled) {
  prune_flag().store(enabled, std::memory_order_relaxed);
}

std::vector<SpatialUnrolling> enumerate_unrollings(std::int64_t total_pes) {
  expects(total_pes >= 1 && (total_pes & (total_pes - 1)) == 0,
          "PE budget must be a power of two");
  std::vector<SpatialUnrolling> out;
  // total_pes = 2^e yields C(e+3, 3) = (e+1)(e+2)(e+3)/6 factorizations:
  // choose exponents for (k, c, ox); oy takes the remainder.
  std::int64_t e = 0;
  while ((std::int64_t{1} << e) < total_pes) ++e;
  out.reserve(static_cast<std::size_t>((e + 1) * (e + 2) * (e + 3) / 6));
  for (std::int64_t k = 1; k <= total_pes; k *= 2) {
    for (std::int64_t c = 1; k * c <= total_pes; c *= 2) {
      for (std::int64_t ox = 1; k * c * ox <= total_pes; ox *= 2) {
        const std::int64_t oy = total_pes / (k * c * ox);
        out.push_back({k, c, ox, oy});
      }
    }
  }
  return out;
}

double SpatialSearchResult::improvement() const {
  const double searched = cost.latency_cycles * cost.energy_pj;
  const double fixed = fixed_cost.latency_cycles * fixed_cost.energy_pj;
  return searched > 0.0 ? fixed / searched : 1.0;
}

SpatialSearchResult search_spatial(const nn::ConvSpec& conv,
                                   const Architecture& arch,
                                   const SystemCosts& sys, std::int64_t n_cs) {
  TraceSpan search_span("mapper.spatial_search", "mapper");
  StageTimer search_stage("mapper.spatial_search");
  SpatialSearchResult result;
  result.fixed_cost = evaluate_conv(conv, arch, sys, n_cs);
  result.best = arch.spatial;
  result.cost = result.fixed_cost;

  // Price all candidates into pre-sized slots (parallel), then reduce in
  // enumeration order — the strict `<` keeps first-in-order tie wins, so
  // the winner is bit-identical to the serial loop at any jobs count.
  const auto candidates = enumerate_unrollings(arch.spatial.total_pes());
  std::vector<LayerCost> costs(candidates.size());

  // Admissible pruning.  For candidate s, every temporal mapping satisfies
  //
  //   latency >= compute_cycles * share >= macs / (pes * util(s)) / nmax(s)
  //     where nmax(s) <= min(n_cs, ceil(k/s.k) * ceil(oy/s.oy)) — the
  //     partitioner can only split K tiles and output rows, so a candidate
  //     with few outer tiles cannot occupy every CS;
  //   energy  >= macs * mac_energy_pj                        (MAC floor)
  //            + cs_idle * (n_cs - nmax(s)) * latency        (unfillable
  //     CSs idle for the whole layer; all other terms are non-negative).
  //
  // So lb(s) = lat_lb * (mac_floor + cs_idle * (n_cs - nmax_ub) * lat_lb)
  // under-estimates its EDP.  A candidate with lb >= the fixed dataflow's
  // EDP can never pass the strict-< reduction below (the incumbent only
  // improves), so it is skipped without pricing.  NaN bounds compare false
  // and are conservatively kept.
  std::vector<char> pruned(candidates.size(), 0);
  const double fixed_edp =
      result.fixed_cost.latency_cycles * result.fixed_cost.energy_pj;
  if (spatial_prune_enabled() && std::isfinite(fixed_edp) &&
      prune_bound_valid(arch, sys)) {
    const double macs = static_cast<double>(conv.k * conv.c * conv.ox *
                                            conv.oy * conv.fx * conv.fy);
    const double pes = static_cast<double>(arch.spatial.total_pes());
    const double mac_energy = macs * arch.mac_energy_pj;
    const double n = static_cast<double>(n_cs);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double util = spatial_utilization(conv, candidates[i]);
      const double outer_tiles =
          static_cast<double>(ceil_div(conv.k, candidates[i].k) *
                              ceil_div(conv.oy, candidates[i].oy));
      const double nmax_ub = std::min(n, outer_tiles);
      const double lat_lb = macs / (pes * util) / nmax_ub;
      const double energy_lb =
          mac_energy + sys.cs_idle_pj_per_cycle * (n - nmax_ub) * lat_lb;
      const double lb = lat_lb * energy_lb;
      if (lb >= fixed_edp) {
        pruned[i] = 1;
        ++result.lb_pruned;
      }
    }
  }

  const int jobs =
      FaultInjector::instance().armed() ? 1 : parallel::jobs();
  parallel::parallel_for_indexed(
      candidates.size(),
      [&](std::size_t i) {
        if (pruned[i] != 0) return;
        Architecture variant = arch;
        variant.spatial = candidates[i];
        costs[i] = price_conv(conv, variant, sys, n_cs);
      },
      {.jobs = jobs, .grain = 4});

  std::int64_t improved = 0;
  double best_edp = fixed_edp;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ++result.candidates;
    if (pruned[i] != 0) continue;  // costs[i] was never priced
    const double edp = costs[i].latency_cycles * costs[i].energy_pj;
    if (edp < best_edp) {
      best_edp = edp;
      result.best = candidates[i];
      result.cost = costs[i];
      ++improved;
    }
  }
  if (metrics_enabled()) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    registry.counter("mapper.spatial.searches").add();
    registry.counter("mapper.spatial.candidates")
        .add(static_cast<std::uint64_t>(result.candidates));
    registry.counter("mapper.spatial.pruned")
        .add(static_cast<std::uint64_t>(result.candidates - improved));
    registry.counter("mapper.spatial.lb_pruned")
        .add(static_cast<std::uint64_t>(result.lb_pruned));
    registry.gauge("mapper.spatial.best_edp").set(best_edp);
  }
  ensures(result.improvement() >= 1.0 - 1e-9,
          "search must never be worse than the fixed dataflow");
  return result;
}

SearchedNetworkCost evaluate_network_with_search(const nn::Network& net,
                                                 const Architecture& arch,
                                                 const SystemCosts& sys,
                                                 std::int64_t n_cs) {
  SearchedNetworkCost out;
  out.fixed = evaluate_network(net, arch, sys, n_cs);
  out.searched.network = net.name();
  out.searched.architecture = arch.name + " + spatial search";
  out.searched.n_cs = n_cs;
  // Per-layer fan-out into pre-sized slots (each layer task runs its own
  // nested per-unrolling search), then a serial in-order accumulation so
  // the double sums are bit-identical to the serial loop.
  const auto& layers = net.layers();
  out.searched.layers.reserve(layers.size());
  std::vector<std::optional<SpatialSearchResult>> searched(layers.size());
  const int jobs =
      FaultInjector::instance().armed() ? 1 : parallel::jobs();
  parallel::parallel_for_indexed(
      layers.size(),
      [&](std::size_t i) {
        if (layers[i].is_conv()) {
          searched[i] = search_spatial(layers[i].conv(), arch, sys, n_cs);
        }
      },
      {.jobs = jobs});
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (searched[i].has_value()) {
      const SpatialSearchResult& r = *searched[i];
      out.searched.latency_cycles += r.cost.latency_cycles;
      out.searched.energy_pj += r.cost.energy_pj;
      out.searched.layers.push_back(r.cost);
    } else {
      // Vector layers are dataflow-independent: reuse the fixed cost.
      const LayerCost& fixed =
          out.fixed.layers[out.searched.layers.size()];
      out.searched.latency_cycles += fixed.latency_cycles;
      out.searched.energy_pj += fixed.energy_pj;
      out.searched.layers.push_back(fixed);
    }
  }
  return out;
}

}  // namespace uld3d::mapper
