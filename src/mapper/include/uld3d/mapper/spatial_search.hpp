// Joint architecture-mapping search over SPATIAL unrollings — the design
// freedom ZigZag's title refers to ("enlarging joint architecture-mapping
// design space exploration").  For a fixed PE budget, consider the
// power-of-two (K, C, OX, OY) unrollings, price each layer under each
// candidate with the temporal mapper, and keep the best.  Comparing the
// fixed-dataflow cost against the searched cost quantifies how much a
// reconfigurable array would buy at each design point.
#pragma once

#include "uld3d/mapper/cost_model.hpp"

namespace uld3d::mapper {

/// Outcome of searching one layer.
struct SpatialSearchResult {
  SpatialUnrolling best;
  LayerCost cost;               ///< cost under the best unrolling
  LayerCost fixed_cost;         ///< cost under the architecture's own unrolling
  std::size_t candidates = 0;   ///< unrollings considered (priced + skipped)
  /// Candidates the best-first pass skipped without pricing: the search
  /// stopped before reaching them because their admissible EDP lower bound
  /// could not beat the incumbent (DESIGN.md §17).  The winner is provably
  /// unaffected.  A walk for an overflowed zero EDP may price some later.
  std::size_t lb_pruned = 0;
  /// EDP of the fixed dataflow divided by EDP of the searched best (>= 1).
  [[nodiscard]] double improvement() const;
};

/// Search the best spatial unrolling for `conv` on a variant of `arch`
/// (buffers and hierarchy unchanged; only the PE-array shape moves).  The
/// candidates are the C(e+3, 3) power-of-two unrollings (k, c, ox, oy) of
/// the 2^e PE budget, numbered with k outermost and ox innermost; the
/// budget must be a power of two.  Candidates are priced best-first by an
/// admissible EDP lower bound until no remaining bound can beat the
/// incumbent; `best`, `cost` and `candidates` are bit-identical to pricing
/// every candidate with price_conv in that order and keeping the first
/// strictly better one.
[[nodiscard]] SpatialSearchResult search_spatial(const nn::ConvSpec& conv,
                                                 const Architecture& arch,
                                                 const SystemCosts& sys,
                                                 std::int64_t n_cs);

/// Network-level totals with a per-layer spatial search (an idealised
/// reconfigurable array) vs. the architecture's fixed dataflow.
struct SearchedNetworkCost {
  NetworkCost fixed;
  NetworkCost searched;
  [[nodiscard]] double edp_improvement() const {
    return fixed.edp() / searched.edp();
  }
};

/// Searches each distinct conv shape (every ConvSpec field but the name)
/// once and gives each layer of that shape the result under its own name.
[[nodiscard]] SearchedNetworkCost evaluate_network_with_search(
    const nn::Network& net, const Architecture& arch, const SystemCosts& sys,
    std::int64_t n_cs);

}  // namespace uld3d::mapper
