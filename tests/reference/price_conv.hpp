// The seed's conv pricing, kept verbatim as the oracle that
// mapper::price_conv and the spatial search's kernel (cost_model.cpp) must
// reproduce bit for bit: candidate_mappings derives the three temporal
// mappings of one unrolling, price_candidate prices each one, and
// price_conv keeps the first strictly cheaper EDP.
//
// For one convolution on one architecture the mapper enumerates three
// canonical weight-stationary loop orders and keeps the cheapest:
//   A. weight-outer  : for k_o { for c_o { for tap { stream pixels }}}
//                      inputs re-fetched once per (k_o, tap); per-K-tile
//                      partial sums stay resident.
//   B. input-outer   : for c_o { for tap { for k_o { stream pixels }}}
//                      inputs fetched once per tap; the FULL output map must
//                      stay resident across passes or spill.
//   C. pixel-tiled   : order B with the pixel loop tiled so the full-K
//                      partial-sum tile fits on chip; weights re-fetched once
//                      per pixel tile.
// Each candidate yields per-level traffic volumes; the cost model prices
// them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uld3d/mapper/architecture.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/nn/layer.hpp"

namespace uld3d::mapper::reference {

/// Traffic volumes (bits) one operand moves at each hierarchy level for one
/// full layer execution on ONE computing sub-system.
struct OperandTraffic {
  double reg_bits = 0.0;
  double local_bits = 0.0;
  double global_bits = 0.0;
  double rram_read_bits = 0.0;
  double rram_write_bits = 0.0;
};

/// A fully-derived temporal mapping candidate.
struct TemporalMapping {
  std::string order;        ///< "weight-outer", "input-outer", "pixel-tiled"
  std::int64_t k_outer = 1; ///< weight-tile iterations along K
  std::int64_t c_outer = 1;
  std::int64_t taps = 1;
  double utilization = 1.0; ///< spatial PE fill
  double compute_cycles = 0.0;  ///< MACs / (PEs * utilization)
  OperandTraffic weights;
  OperandTraffic inputs;
  OperandTraffic outputs;
};

/// All candidate mappings for `conv` on `arch` (always non-empty).
[[nodiscard]] std::vector<TemporalMapping> candidate_mappings(
    const nn::ConvSpec& conv, const Architecture& arch);

/// Allocation-reusing variant: clears `out` and fills it with the same
/// candidates (reference::price_conv keeps one thread-local vector, so
/// pricing many unrollings does not reallocate its spine).
void candidate_mappings(const nn::ConvSpec& conv, const Architecture& arch,
                        std::vector<TemporalMapping>& out);

/// Spatial PE-array utilization of `conv` on `arch`.
[[nodiscard]] double spatial_utilization(const nn::ConvSpec& conv,
                                         const SpatialUnrolling& spatial);

/// Price every candidate mapping on `n_cs` CSs and keep the first strictly
/// cheaper EDP; a layer whose every EDP overflows gets the zero-cost
/// "nothing beat +inf" result, named.
[[nodiscard]] LayerCost price_conv(const nn::ConvSpec& conv,
                                   const Architecture& arch,
                                   const SystemCosts& sys, std::int64_t n_cs);

/// All power-of-two unrollings (k, c, ox, oy) with k*c*ox*oy == total_pes,
/// in the order the spatial search numbers them.  `total_pes` must be a
/// power of two.
[[nodiscard]] std::vector<SpatialUnrolling> enumerate_unrollings(
    std::int64_t total_pes);

}  // namespace uld3d::mapper::reference
