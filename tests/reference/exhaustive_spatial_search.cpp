#include "exhaustive_spatial_search.hpp"

#include <utility>

#include "price_conv.hpp"

namespace uld3d::mapper::reference {

SpatialSearchResult exhaustive_spatial_search(const nn::ConvSpec& conv,
                                              const Architecture& arch,
                                              const SystemCosts& sys,
                                              std::int64_t n_cs) {
  SpatialSearchResult result;
  result.fixed_cost = reference::price_conv(conv, arch, sys, n_cs);
  result.best = arch.spatial;
  result.cost = result.fixed_cost;
  double best_edp =
      result.fixed_cost.latency_cycles * result.fixed_cost.energy_pj;
  for (const SpatialUnrolling& s :
       enumerate_unrollings(arch.spatial.total_pes())) {
    ++result.candidates;
    Architecture variant = arch;
    variant.spatial = s;
    LayerCost cost = reference::price_conv(conv, variant, sys, n_cs);
    const double edp = cost.latency_cycles * cost.energy_pj;
    if (edp < best_edp) {  // strict: the first of equal EDPs wins
      best_edp = edp;
      result.best = s;
      result.cost = std::move(cost);
    }
  }
  return result;
}

}  // namespace uld3d::mapper::reference
