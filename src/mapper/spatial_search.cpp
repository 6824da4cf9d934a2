#include "uld3d/mapper/spatial_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
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

/// The bound below is admissible only in the physically sane regime where
/// every parameter it reads or drops is finite and non-negative and the
/// RRAM port has a positive bandwidth: then each priced term is at least
/// its bound term.  A negative or NaN parameter — possible in adversarial
/// configs — turns the search into the plain index-order scan instead of
/// mis-pruning.
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
         ok(arch.rram_bandwidth_bits_per_cycle) &&
         arch.rram_bandwidth_bits_per_cycle > 0.0 && arch.weight_bits >= 0 &&
         arch.activation_bits >= 0 && arch.psum_bits >= 0 &&
         ok(sys.mem_idle_pj_per_cycle) && ok(sys.extra_bank_idle_fraction) &&
         ok(sys.cs_idle_pj_per_cycle) && ok(sys.m3d_access_energy_scale) &&
         ok(sys.rram_write_occupancy);
}

/// One candidate in the best-first order.
struct Entry {
  double lb;           ///< EDP lower bound; -inf means "always price"
  std::int32_t index;  ///< enumeration index, the tie-break
};

/// Inverted (lb, index) order: std's heaps pop their largest element, so
/// this makes the heap pop the smallest bound, then the lowest index.
bool pops_later(const Entry& a, const Entry& b) {
  return a.lb > b.lb || (a.lb == b.lb && a.index > b.index);
}

/// Per-exponent tables for one conv dimension: outer[e] = ceil(dim / 2^e)
/// and fill[e] = dim / (outer[e] * 2^e), temporal_mapping's fill() for an
/// unrolling of 2^e.
struct AxisTable {
  std::array<std::int64_t, 64> outer{};
  std::array<double, 64> fill{};

  AxisTable(std::int64_t dim, int max_exp) {
    for (int e = 0; e <= max_exp; ++e) {
      const std::int64_t unroll = std::int64_t{1} << e;
      outer[e] = ceil_div(dim, unroll);
      fill[e] = static_cast<double>(dim) /
                static_cast<double>(outer[e] * unroll);
    }
  }
};

/// What the bound needs from price_candidate_scalar's (k_par, oy_par)
/// split: the CSs it occupies, their share, and the RRAM port cycles every
/// temporal mapping pays at least (each reads the weights and the inputs
/// once and writes the outputs once).
struct Split {
  double nm = 1.0;
  double share = 1.0;
  double rram_lb = 0.0;
};

/// One entry per candidate of `candidates`, in order.  Every bound term
/// uses its priced twin's expression tree (price_candidate_scalar,
/// candidate_mappings), so it is at most that term in floating point too.
std::vector<Entry> bound_candidates(
    const nn::ConvSpec& conv, const Architecture& arch, const SystemCosts& sys,
    std::int64_t n_cs, const std::vector<SpatialUnrolling>& candidates) {
  const int max_exp = std::countr_zero(
      static_cast<std::uint64_t>(arch.spatial.total_pes()));
  const AxisTable k_axis(conv.k, max_exp);
  const AxisTable c_axis(conv.c, max_exp);
  const AxisTable ox_axis(conv.ox, max_exp);
  const AxisTable oy_axis(conv.oy, max_exp);

  const double wb = static_cast<double>(arch.weight_bits);
  const double ab = static_cast<double>(arch.activation_bits);
  const double pb = static_cast<double>(arch.psum_bits);
  const double macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy *
                                          conv.fx * conv.fy);
  const double w_bits =
      static_cast<double>(conv.k * conv.c * conv.fx * conv.fy) * wb;
  const double i_bits =
      static_cast<double>(conv.c * conv.input_x() * conv.input_y()) * ab;
  const double o_bits = static_cast<double>(conv.k * conv.ox * conv.oy) * ab;
  const double pes = static_cast<double>(arch.spatial.total_pes());
  const double n = static_cast<double>(n_cs);

  // The split depends on (min(n_cs, k_outer), oy_outer) only.  For a fixed
  // oy exponent, price_candidate_scalar's k-scan over a larger k_outer
  // extends the scan over a smaller one, so one scan per oy exponent, with
  // k exponents taken from large to small, yields every split; n_cs / k is
  // shared by all of them.
  const std::int64_t k_scan =
      std::max<std::int64_t>(0, std::min(n_cs, k_axis.outer[0]));
  std::vector<std::int64_t> n_over_k(static_cast<std::size_t>(k_scan));
  for (std::int64_t k = 1; k <= k_scan; ++k) {
    n_over_k[static_cast<std::size_t>(k - 1)] = n_cs / k;
  }
  const auto side = static_cast<std::size_t>(max_exp + 1);
  std::vector<Split> splits(side * side);
  for (int eoy = 0; eoy <= max_exp; ++eoy) {
    std::int64_t k = 0;
    std::int64_t k_par = 1;
    std::int64_t oy_par = 1;
    for (int ek = max_exp - eoy; ek >= 0; --ek) {
      const std::int64_t k_max = std::min(n_cs, k_axis.outer[ek]);
      while (k < k_max) {
        ++k;
        const std::int64_t oy = std::min(
            n_over_k[static_cast<std::size_t>(k - 1)], oy_axis.outer[eoy]);
        if (k * oy >= k_par * oy_par) {
          k_par = k;
          oy_par = oy;
        }
      }
      Split& s = splits[static_cast<std::size_t>(ek) * side +
                        static_cast<std::size_t>(eoy)];
      s.nm = static_cast<double>(k_par * oy_par);
      s.share = 1.0 / s.nm;
      s.rram_lb = (w_bits / static_cast<double>(k_par) +
                   i_bits / static_cast<double>(oy_par) +
                   o_bits * s.share * sys.rram_write_occupancy) /
                  arch.rram_bandwidth_bits_per_cycle;
    }
  }

  // Energy every temporal mapping pays: the MACs, the register traffic of
  // candidate_mappings' `common`, and one RRAM pass over each operand.
  // Buffer traffic beyond the registers and memory idle are >= 0 and
  // dropped (a candidate may be RRAM-bound, leaving no memory idle).
  const double access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  const double energy_floor =
      macs * arch.mac_energy_pj +
      (macs * wb * arch.weights.reg.access_energy_pj_per_bit +
       2.0 * macs * pb * arch.outputs.reg.access_energy_pj_per_bit) +
      access_scale * ((w_bits + i_bits) * arch.rram_read_pj_per_bit +
                      o_bits * arch.rram_write_pj_per_bit);
  // Deflated so that no rounding can lift a bound above its EDP.
  constexpr double kDeflate = 1.0 - 1e-12;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<Entry> bounds(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SpatialUnrolling& s = candidates[i];
    const int ek = std::countr_zero(static_cast<std::uint64_t>(s.k));
    const int eoy = std::countr_zero(static_cast<std::uint64_t>(s.oy));
    const Split& split = splits[static_cast<std::size_t>(ek) * side +
                                static_cast<std::size_t>(eoy)];
    // spatial_utilization's product, in its association.
    const double util =
        k_axis.fill[ek] *
        c_axis.fill[std::countr_zero(static_cast<std::uint64_t>(s.c))] *
        ox_axis.fill[std::countr_zero(static_cast<std::uint64_t>(s.ox))] *
        oy_axis.fill[eoy];
    const double compute = macs / (pes * util) * split.share;
    const double lat = std::max(compute, split.rram_lb);
    const double cs_idle =
        sys.cs_idle_pj_per_cycle *
        ((n - split.nm) * lat +
         split.nm * std::max(0.0, lat - compute));
    const double lb = lat * (energy_floor + cs_idle) * kDeflate;
    // NaN says nothing, and +inf means every temporal mapping of `s`
    // overflows, which price_conv reports as its zero-cost "nothing beat
    // +inf" result: price both.
    bounds[i] = {lb < kInf ? lb : -kInf, static_cast<std::int32_t>(i)};
  }
  return bounds;
}

}  // namespace

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

  // Best-first search (DESIGN.md §17): price candidates in (bound, index)
  // order and stop once the next bound cannot beat the incumbent.  The
  // incumbent starts as the fixed dataflow at index -1, and ties go to the
  // lower index, so the winner is the first-of-equals minimum that the
  // exhaustive strict-< scan in enumeration order picks.
  const auto candidates = enumerate_unrollings(arch.spatial.total_pes());
  double best_edp =
      result.fixed_cost.latency_cycles * result.fixed_cost.energy_pj;
  std::vector<Entry> heap;
  if (std::isfinite(best_edp) && prune_bound_valid(arch, sys)) {
    heap = bound_candidates(conv, arch, sys, n_cs, candidates);
  } else {
    // Without a bound every entry ties at -inf: a plain index-order scan.
    heap.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      heap[i] = {-std::numeric_limits<double>::infinity(),
                 static_cast<std::int32_t>(i)};
    }
  }
  std::make_heap(heap.begin(), heap.end(), pops_later);

  Architecture variant = arch;  // only `spatial` changes per candidate
  std::int32_t best_index = -1;
  std::size_t priced = 0;
  for (auto end = heap.end(); end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, pops_later);
    const Entry next = *(end - 1);
    if (next.lb > best_edp ||
        (next.lb == best_edp && next.index > best_index)) {
      break;  // every remaining (lb, index) is at least `next`'s
    }
    variant.spatial = candidates[static_cast<std::size_t>(next.index)];
    LayerCost cost = price_conv(conv, variant, sys, n_cs);
    ++priced;
    const double edp = cost.latency_cycles * cost.energy_pj;
    if (edp < best_edp || (edp == best_edp && next.index < best_index)) {
      best_edp = edp;
      best_index = next.index;
      result.best = variant.spatial;
      result.cost = std::move(cost);
    }
  }
  result.candidates = candidates.size();
  result.lb_pruned = candidates.size() - priced;
  if (metrics_enabled()) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    registry.counter("mapper.spatial.searches").add();
    registry.counter("mapper.spatial.candidates")
        .add(static_cast<std::uint64_t>(result.candidates));
    registry.counter("mapper.spatial.lb_pruned")
        .add(static_cast<std::uint64_t>(result.lb_pruned));
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
  // serial best-first search), then a serial in-order accumulation so the
  // double sums are bit-identical to the serial loop.
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
