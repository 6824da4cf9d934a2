#include "uld3d/mapper/spatial_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
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
  std::array<std::uint8_t, 4> exp;  ///< the (k, c, ox, oy) exponents
};

/// Inverted (lb, index) order: std's heaps pop their largest element, so
/// this makes the heap pop the smallest bound, then the lowest index.
constexpr auto pops_later = [](const Entry& a, const Entry& b) {
  return a.lb > b.lb || (a.lb == b.lb && a.index > b.index);
};

/// Per-exponent tables for one conv dimension: outer[e] = ceil(dim / 2^e)
/// and fill[e] = dim / (outer[e] * 2^e), spatial_utilization's fill for an
/// unrolling of 2^e.  Entries above `max_exp` are left unset.
struct AxisTable {
  std::array<std::int64_t, 64> outer;
  std::array<double, 64> fill;

  AxisTable(std::int64_t dim, int max_exp) {
    for (int e = 0; e <= max_exp; ++e) {
      const std::int64_t unroll = std::int64_t{1} << e;
      outer[e] = ceil_div(dim, unroll);
      fill[e] = static_cast<double>(dim) /
                static_cast<double>(outer[e] * unroll);
    }
  }
};

/// The CsSplit that price_conv's scan (cost_model.cpp) picks for one
/// (k exponent, oy exponent) pair, and what the bound needs from it: the
/// CSs it occupies, their share, and the RRAM port cycles every temporal
/// mapping pays at least (each reads the weights and the inputs once and
/// writes the outputs once).
struct Split {
  CsSplit cs;
  double nm = 1.0;
  double share = 1.0;
  double rram_lb = 0.0;
};

/// Everything the search reads per candidate, by exponent: the kernel's
/// inputs (k_outer, c_outer, utilization, split) and the bound.  Every
/// bound term uses its priced twin's expression tree (ConvPricer::price),
/// so it is at most that term in floating point too.
class UnrollingTables {
 public:
  UnrollingTables(const nn::ConvSpec& conv, const ConvVolumes& volumes,
                  const Architecture& arch, const SystemCosts& sys,
                  std::int64_t n_cs, int max_exp)
      : k_(conv.k, max_exp),
        c_(conv.c, max_exp),
        ox_(conv.ox, max_exp),
        oy_(conv.oy, max_exp),
        side_(static_cast<std::size_t>(max_exp + 1)),
        splits_(side_ * side_),
        macs_(volumes.macs) {
    const double wb = static_cast<double>(arch.weight_bits);
    const double pb = static_cast<double>(arch.psum_bits);
    const double w_bits = volumes.weight_bits;
    const double i_bits = volumes.input_bits;
    const double o_bits = volumes.output_bits;
    pes_ = static_cast<double>(arch.spatial.total_pes());
    n_ = static_cast<double>(n_cs);
    cs_idle_pj_per_cycle_ = sys.cs_idle_pj_per_cycle;

    // The split depends on (min(n_cs, k_outer), oy_outer) only.  For a
    // fixed oy exponent, price_conv's k-scan over a larger k_outer extends
    // the scan over a smaller one, so one scan per oy exponent, with k
    // exponents taken from large to small, yields every split; n_cs / k is
    // shared by all of them.
    const std::int64_t k_scan =
        std::max<std::int64_t>(0, std::min(n_cs, k_.outer[0]));
    std::vector<std::int64_t> n_over_k(static_cast<std::size_t>(k_scan));
    for (std::int64_t k = 1; k <= k_scan; ++k) {
      n_over_k[static_cast<std::size_t>(k - 1)] = n_cs / k;
    }
    for (int eoy = 0; eoy <= max_exp; ++eoy) {
      std::int64_t k = 0;
      CsSplit cs;
      for (int ek = max_exp - eoy; ek >= 0; --ek) {
        const std::int64_t k_max = std::min(n_cs, k_.outer[ek]);
        while (k < k_max) {
          ++k;
          const std::int64_t oy = std::min(
              n_over_k[static_cast<std::size_t>(k - 1)], oy_.outer[eoy]);
          if (k * oy >= cs.k_par * cs.oy_par) {
            cs = {k, oy};
          }
        }
        Split& s = split(ek, eoy);
        s.cs = cs;
        s.nm = static_cast<double>(cs.k_par * cs.oy_par);
        s.share = 1.0 / s.nm;
        s.rram_lb = (w_bits / static_cast<double>(cs.k_par) +
                     i_bits / static_cast<double>(cs.oy_par) +
                     o_bits * s.share * sys.rram_write_occupancy) /
                    arch.rram_bandwidth_bits_per_cycle;
      }
    }

    // Energy every temporal mapping pays: the MACs, the register traffic
    // common to all orders, and one RRAM pass over each operand.  Buffer
    // traffic beyond the registers and memory idle are >= 0 and dropped (a
    // candidate may be RRAM-bound, leaving no memory idle).
    const double access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
    energy_floor_ =
        macs_ * arch.mac_energy_pj +
        (macs_ * wb * arch.weights.reg.access_energy_pj_per_bit +
         2.0 * macs_ * pb * arch.outputs.reg.access_energy_pj_per_bit) +
        access_scale * ((w_bits + i_bits) * arch.rram_read_pj_per_bit +
                        o_bits * arch.rram_write_pj_per_bit);
  }

  /// spatial_utilization's product, in its association.
  [[nodiscard]] double utilization(int ek, int ec, int eox, int eoy) const {
    return k_.fill[ek] * c_.fill[ec] * ox_.fill[eox] * oy_.fill[eoy];
  }

  /// The candidate's admissible EDP lower bound, or -inf when it says
  /// nothing: NaN says nothing, and +inf means every temporal mapping of
  /// the candidate overflows, which price() reports as its zero-cost
  /// "nothing beat +inf" result, so both are always priced.
  [[nodiscard]] double bound(int ek, int ec, int eox, int eoy) const {
    const Split& s = split(ek, eoy);
    const double compute = macs_ / (pes_ * utilization(ek, ec, eox, eoy)) *
                           s.share;
    const double lat = std::max(compute, s.rram_lb);
    const double cs_idle =
        cs_idle_pj_per_cycle_ *
        ((n_ - s.nm) * lat + s.nm * std::max(0.0, lat - compute));
    // Deflated so that no rounding can lift a bound above its EDP.
    constexpr double kDeflate = 1.0 - 1e-12;
    const double lb = lat * (energy_floor_ + cs_idle) * kDeflate;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return lb < kInf ? lb : -kInf;
  }

  [[nodiscard]] UnrollingCost price(const ConvPricer& pricer,
                                    const Entry& e) const {
    const auto [ek, ec, eox, eoy] = e.exp;
    return pricer.price(k_.outer[ek], c_.outer[ec],
                        utilization(ek, ec, eox, eoy), split(ek, eoy).cs);
  }

 private:
  [[nodiscard]] Split& split(int ek, int eoy) {
    return splits_[static_cast<std::size_t>(ek) * side_ +
                   static_cast<std::size_t>(eoy)];
  }
  [[nodiscard]] const Split& split(int ek, int eoy) const {
    return splits_[static_cast<std::size_t>(ek) * side_ +
                   static_cast<std::size_t>(eoy)];
  }

  AxisTable k_;
  AxisTable c_;
  AxisTable ox_;
  AxisTable oy_;
  std::size_t side_;
  std::vector<Split> splits_;
  double macs_;
  double pes_ = 1.0;
  double n_ = 1.0;
  double cs_idle_pj_per_cycle_ = 0.0;
  double energy_floor_ = 0.0;
};

}  // namespace

double SpatialSearchResult::improvement() const {
  const double searched = cost.latency_cycles * cost.energy_pj;
  const double fixed = fixed_cost.latency_cycles * fixed_cost.energy_pj;
  return searched > 0.0 ? fixed / searched : 1.0;
}

SpatialSearchResult search_spatial(const nn::ConvSpec& conv,
                                   const Architecture& arch,
                                   const SystemCosts& sys, std::int64_t n_cs) {
  TraceSpan search_span("mapper.spatial_search", "mapper", TraceSpan::kStage);
  SpatialSearchResult result;
  result.fixed_cost = evaluate_conv(conv, arch, sys, n_cs);
  result.best = arch.spatial;
  result.cost = result.fixed_cost;
  const std::int64_t total_pes = arch.spatial.total_pes();
  expects(total_pes >= 1 && (total_pes & (total_pes - 1)) == 0,
          "PE budget must be a power of two");

  // Best-first search (DESIGN.md §17): price candidates in (bound, index)
  // order and stop once the next bound cannot beat the incumbent.  The
  // incumbent starts as the fixed dataflow at index -1, and ties go to the
  // lower index, so the winner is the first-of-equals minimum that the
  // exhaustive strict-< scan in enumeration order picks.  The candidates
  // are the power-of-two unrollings (2^ek, 2^ec, 2^eox, 2^eoy) of the
  // budget 2^e, walked in (ek, ec, eox) order, which numbers them.  Only
  // bounds below the fixed EDP enter the heap: the pop loop stops before
  // any other.
  const int e = std::countr_zero(static_cast<std::uint64_t>(total_pes));
  const ConvPricer pricer(conv, arch, sys, n_cs);
  const UnrollingTables tables(conv, pricer.volumes(), arch, sys, n_cs, e);
  double best_edp =
      result.fixed_cost.latency_cycles * result.fixed_cost.energy_pj;
  // Without a bound every entry ties at -inf: a plain index-order scan.
  const bool bounded = std::isfinite(best_edp) && prune_bound_valid(arch, sys);
  std::vector<Entry> heap;
  heap.reserve(static_cast<std::size_t>((e + 1) * (e + 2) * (e + 3) / 6));
  std::int32_t index = 0;
  for (int ek = 0; ek <= e; ++ek) {
    for (int ec = 0; ec <= e - ek; ++ec) {
      for (int eox = 0; eox <= e - ek - ec; ++eox, ++index) {
        const int eoy = e - ek - ec - eox;
        const double lb = bounded ? tables.bound(ek, ec, eox, eoy)
                                  : -std::numeric_limits<double>::infinity();
        if (!bounded || lb < best_edp) {
          heap.push_back({lb, index,
                          {static_cast<std::uint8_t>(ek),
                           static_cast<std::uint8_t>(ec),
                           static_cast<std::uint8_t>(eox),
                           static_cast<std::uint8_t>(eoy)}});
        }
      }
    }
  }
  std::make_heap(heap.begin(), heap.end(), pops_later);

  Entry best{0.0, -1, {}};  // the incumbent; index -1 is the fixed dataflow
  UnrollingCost best_cost;
  std::size_t priced = 0;
  for (auto end = heap.end(); end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, pops_later);
    const Entry next = *(end - 1);
    if (next.lb > best_edp ||
        (next.lb == best_edp && next.index > best.index)) {
      break;  // every remaining (lb, index) is at least `next`'s
    }
    const UnrollingCost cost = tables.price(pricer, next);
    ++priced;
    const double edp = cost.edp();
    if (edp < best_edp || (edp == best_edp && next.index < best.index)) {
      best_edp = edp;
      best = next;
      best_cost = cost;
    }
  }
  if (best_edp == 0.0 && best.index > 0) {
    // An EDP of exactly 0 is an overflowed "nothing beat +inf" result whose
    // finite bound did not hold, so a lower index left unpriced may be one
    // too.  The exhaustive scan keeps the first in index order: price the
    // lower indices in that order, and the first zero ends the walk.
    std::int32_t i = 0;
    for (int ek = 0; ek <= e && i < best.index; ++ek) {
      for (int ec = 0; ec <= e - ek && i < best.index; ++ec) {
        for (int eox = 0; eox <= e - ek - ec && i < best.index; ++eox, ++i) {
          const Entry lower{0.0, i,
                            {static_cast<std::uint8_t>(ek),
                             static_cast<std::uint8_t>(ec),
                             static_cast<std::uint8_t>(eox),
                             static_cast<std::uint8_t>(e - ek - ec - eox)}};
          const UnrollingCost cost = tables.price(pricer, lower);
          if (cost.edp() == 0.0) {
            best = lower;
            best_cost = cost;
          }
        }
      }
    }
  }
  if (best.index >= 0) {
    const auto [ek, ec, eox, eoy] = best.exp;
    result.best = {std::int64_t{1} << ek, std::int64_t{1} << ec,
                   std::int64_t{1} << eox, std::int64_t{1} << eoy};
    result.cost = best_cost.to_layer_cost(conv.name);
  }
  result.candidates = static_cast<std::size_t>(index);
  result.lb_pruned = result.candidates - priced;
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
  // One search per distinct conv shape (the first layer of each shape
  // holds its slot), fanned out into pre-sized slots; then a serial
  // in-order accumulation, so the double sums are bit-identical to the
  // serial loop.
  const auto& layers = net.layers();
  out.searched.layers.reserve(layers.size());
  const auto same_shape = [](const nn::ConvSpec& a, const nn::ConvSpec& b) {
    return a.k == b.k && a.c == b.c && a.ox == b.ox && a.oy == b.oy &&
           a.fx == b.fx && a.fy == b.fy && a.stride == b.stride;
  };
  std::vector<std::size_t> slot(layers.size());  // the shape's first layer
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!layers[i].is_conv()) continue;
    const auto it = std::find_if(
        distinct.begin(), distinct.end(), [&](std::size_t first) {
          return same_shape(layers[first].conv(), layers[i].conv());
        });
    slot[i] = it != distinct.end() ? *it : distinct.emplace_back(i);
  }
  std::vector<std::optional<SpatialSearchResult>> searched(layers.size());
  parallel::parallel_for_indexed(distinct.size(), [&](std::size_t d) {
    const std::size_t i = distinct[d];
    searched[i] = search_spatial(layers[i].conv(), arch, sys, n_cs);
  });
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].is_conv()) {
      LayerCost cost = searched[slot[i]]->cost;
      cost.layer = layers[i].conv().name;
      out.searched.latency_cycles += cost.latency_cycles;
      out.searched.energy_pj += cost.energy_pj;
      out.searched.layers.push_back(std::move(cost));
    } else {
      // Vector layers are dataflow-independent: reuse the fixed cost.
      const LayerCost& fixed = out.fixed.layers[i];
      out.searched.latency_cycles += fixed.latency_cycles;
      out.searched.energy_pj += fixed.energy_pj;
      out.searched.layers.push_back(fixed);
    }
  }
  return out;
}

}  // namespace uld3d::mapper
