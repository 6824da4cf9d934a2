// Greedy temporal-mapping search (the ZigZag-style [13] mapping engine).
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
// them.  This captures the buffer-capacity / reuse trade-offs that ZigZag
// explores, at the granularity the paper's Fig. 7 comparison needs.
#pragma once

#include <string>

#include "uld3d/mapper/architecture.hpp"
#include "uld3d/nn/layer.hpp"

namespace uld3d::mapper {

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
/// candidates.  Callers that price many layers (price_conv, the spatial
/// search) keep one thread-local vector so steady-state enumeration does not
/// touch the heap (the strings still allocate on first use per slot; the
/// vector's spine never reallocates after the first call).
void candidate_mappings(const nn::ConvSpec& conv, const Architecture& arch,
                        std::vector<TemporalMapping>& out);

/// Spatial PE-array utilization of `conv` on `arch`.
[[nodiscard]] double spatial_utilization(const nn::ConvSpec& conv,
                                         const SpatialUnrolling& spatial);

}  // namespace uld3d::mapper
