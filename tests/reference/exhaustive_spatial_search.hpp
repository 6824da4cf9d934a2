// The exhaustive spatial search: every candidate unrolling priced by the
// seed's pricing (price_conv.hpp) in enumeration order, keeping the first
// strictly better EDP.  This is the oracle that mapper::search_spatial's
// best-first search must reproduce bit for bit (best, cost, fixed_cost,
// candidates).
#pragma once

#include <cstdint>

#include "uld3d/mapper/spatial_search.hpp"

namespace uld3d::mapper::reference {

/// search_spatial without the bound, the kernel or the MapCache: prices
/// all candidates, so `lb_pruned` is always 0.
[[nodiscard]] SpatialSearchResult exhaustive_spatial_search(
    const nn::ConvSpec& conv, const Architecture& arch, const SystemCosts& sys,
    std::int64_t n_cs);

}  // namespace uld3d::mapper::reference
