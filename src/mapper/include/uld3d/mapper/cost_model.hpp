// Cost model: the ZigZag-style [13] temporal mapping engine that prices one
// convolution on one architecture, and the 2D-vs-M3D design-point evaluator
// used by the paper's Fig. 7 study.
//
// For one convolution the mapper prices three canonical weight-stationary
// loop orders and keeps the cheapest:
//   A. weight-outer  : for k_o { for c_o { for tap { stream pixels }}}
//                      inputs re-fetched once per (k_o, tap); per-K-tile
//                      partial sums stay resident.
//   B. input-outer   : for c_o { for tap { for k_o { stream pixels }}}
//                      inputs fetched once per tap; the FULL output map must
//                      stay resident across passes or spill.
//   C. pixel-tiled   : order B with the pixel loop tiled so the full-K
//                      partial-sum tile fits on chip; weights re-fetched once
//                      per pixel tile.
// Each order yields per-level traffic volumes, which are priced into
// latency and energy.  This captures the buffer-capacity / reuse trade-offs
// that ZigZag explores, at the granularity the paper's Fig. 7 comparison
// needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uld3d/core/area_model.hpp"
#include "uld3d/mapper/architecture.hpp"
#include "uld3d/nn/network.hpp"
#include "uld3d/tech/pdk.hpp"

namespace uld3d::mapper {

/// Idle/system energy parameters shared by all design points (mirrors the
/// simulator's MemoryConfig so the two estimators price the same physics).
struct SystemCosts {
  double mem_idle_pj_per_cycle = 10.0;
  double extra_bank_idle_fraction = 0.30;
  double cs_idle_pj_per_cycle = 2.0;
  double m3d_access_energy_scale = 0.97;
  double rram_write_occupancy = 4.0;  ///< write port-cycles per read-cycle-bit
};

/// Cost of one layer on one design point.
struct LayerCost {
  std::string layer;
  std::string mapping_order;   ///< winning candidate
  double latency_cycles = 0.0;
  double compute_cycles = 0.0;
  double rram_cycles = 0.0;
  double energy_pj = 0.0;
  double mac_energy_pj = 0.0;
  double buffer_energy_pj = 0.0;  ///< reg + local + global
  double rram_energy_pj = 0.0;
  double idle_energy_pj = 0.0;
  double utilization = 0.0;
  std::int64_t cs_used = 1;
};

/// Cost of a full network on one design point.
struct NetworkCost {
  std::string network;
  std::string architecture;
  std::int64_t n_cs = 1;
  std::vector<LayerCost> layers;
  double latency_cycles = 0.0;
  double energy_pj = 0.0;

  [[nodiscard]] double edp() const { return latency_cycles * energy_pj; }
};

/// Traffic volumes (bits) one operand moves at each hierarchy level for one
/// full layer execution on ONE computing sub-system.
struct OperandTraffic {
  double reg_bits = 0.0;
  double local_bits = 0.0;
  double global_bits = 0.0;
  double rram_read_bits = 0.0;
  double rram_write_bits = 0.0;
};

/// What one conv moves at least once under any mapping, at the
/// architecture's precisions: its MACs and the bits of its weights, inputs,
/// outputs and output partial sums.
struct ConvVolumes {
  double macs = 0.0;
  double weight_bits = 0.0;
  double input_bits = 0.0;
  double output_bits = 0.0;
  double psum_bits = 0.0;
};

/// Spatial PE-array utilization of `conv` on `spatial`.
[[nodiscard]] double spatial_utilization(const nn::ConvSpec& conv,
                                         const SpatialUnrolling& spatial);

/// How one unrolling spreads over the CSs: k_par groups of K tiles times
/// oy_par groups of output rows.  Weights split along K (replicated across
/// the row groups), inputs along OY (replicated across the K groups), and
/// outputs fully.  The mapper takes, of the splits of ceil(K / k) K tiles
/// and ceil(OY / oy) row tiles over at most n_cs CSs, one that uses the
/// most CSs, preferring the larger k_par (it splits the weight traffic): a
/// mapping freedom ZigZag also explores, and that the fixed Sec.-II SoC in
/// uld3d::sim deliberately does NOT have.
struct CsSplit {
  std::int64_t k_par = 1;
  std::int64_t oy_par = 1;
};

/// A LayerCost's numbers before it gets its strings: the kernel's result,
/// so that the spatial search names only its winner.
struct UnrollingCost {
  /// Index of the winning loop order in ConvPricer::kOrders, or -1 when
  /// every order's EDP overflowed: price_conv's "nothing beat +inf" result,
  /// whose numbers are LayerCost's zero defaults.
  int order = -1;
  double latency_cycles = 0.0;
  double compute_cycles = 0.0;
  double rram_cycles = 0.0;
  double energy_pj = 0.0;
  double mac_energy_pj = 0.0;
  double buffer_energy_pj = 0.0;
  double rram_energy_pj = 0.0;
  double idle_energy_pj = 0.0;
  double utilization = 0.0;
  std::int64_t cs_used = 1;

  [[nodiscard]] double edp() const { return latency_cycles * energy_pj; }
  [[nodiscard]] LayerCost to_layer_cost(const std::string& layer) const;
};

/// The pricing of one conv on `n_cs` CSs, split in two (DESIGN.md §17): the
/// constructor derives once everything the PE-array shape does not move
/// (volumes, buffer routing, the pixel-tiled order's whole traffic), and
/// price() is the per-unrolling kernel.  price_conv runs the kernel once;
/// the spatial search runs it for each candidate it prices.  Of
/// `arch.spatial` only the PE count is read.  Holds references to `arch`
/// and `sys`.
class ConvPricer {
 public:
  static constexpr const char* kOrders[] = {"weight-outer", "input-outer",
                                            "pixel-tiled"};

  ConvPricer(const nn::ConvSpec& conv, const Architecture& arch,
             const SystemCosts& sys, std::int64_t n_cs);

  /// The cheapest-EDP loop order (the first of equals) of the unrolling
  /// with `k_outer` = ceil(K / k) and `c_outer` = ceil(C / c) weight tiles,
  /// spatial utilization `utilization`, and CS split `split`.
  [[nodiscard]] UnrollingCost price(std::int64_t k_outer,
                                    std::int64_t c_outer, double utilization,
                                    CsSplit split) const;

  [[nodiscard]] const ConvVolumes& volumes() const { return volumes_; }

 private:
  /// What pricing reads of one operand's traffic.
  struct OperandTerms {
    double rram_read_bits = 0.0;
    double rram_write_bits = 0.0;
    double cycles = 0.0;     ///< buffer cycles on one CS
    double energy_pj = 0.0;  ///< buffer access energy
  };

  [[nodiscard]] static OperandTerms terms(const OperandBuffers& buffers,
                                          const OperandTraffic& t);

  const Architecture& arch_;
  const SystemCosts& sys_;
  std::int64_t pes_ = 1;
  double n_ = 1.0;
  double access_scale_ = 1.0;
  double bank_scale_ = 1.0;
  ConvVolumes volumes_;
  double mac_energy_pj_ = 0.0;
  double taps_ = 1.0;
  double psum_capacity_ = 0.0;
  double out_reg_bits_ = 0.0;    ///< outputs' register traffic, every order
  double out_write_bits_ = 0.0;  ///< outputs' RRAM writes, every order
  // The terms no unrolling moves: the weights of orders A and B (read once
  // from RRAM), B's inputs, and all three operands of C.
  OperandTerms weights_once_;
  OperandTerms b_inputs_;
  OperandTerms c_weights_;
  OperandTerms c_inputs_;
  OperandTerms c_outputs_;
};

/// Price `conv` under `arch`'s own unrolling on `n_cs` parallel CSs
/// (weights split along K, inputs along OY, outputs fully) and return the
/// cheapest-EDP loop order: ConvPricer's kernel, run once.
[[nodiscard]] LayerCost price_conv(const nn::ConvSpec& conv,
                                   const Architecture& arch,
                                   const SystemCosts& sys, std::int64_t n_cs);

/// `price_conv` memoized through the MapCache (bit-identical either way):
/// the fixed-dataflow pricing that evaluate_network and the spatial
/// search's baseline repeat per layer shape.
[[nodiscard]] LayerCost evaluate_conv(const nn::ConvSpec& conv,
                                      const Architecture& arch,
                                      const SystemCosts& sys,
                                      std::int64_t n_cs);

/// Evaluate every layer of `net` (pool/eltwise run on a serial vector unit,
/// as in the Sec.-II SoC) and sum.
[[nodiscard]] NetworkCost evaluate_network(const nn::Network& net,
                                           const Architecture& arch,
                                           const SystemCosts& sys,
                                           std::int64_t n_cs);

/// Eq.-2 CS count for the iso-footprint M3D version of `arch`: the CS area
/// comes from the architecture's buffers, the freed area from the PDK's RRAM
/// cell array at the architecture's capacity.
[[nodiscard]] std::int64_t m3d_parallel_cs(const Architecture& arch,
                                           const tech::FoundryM3dPdk& pdk);

/// Area decomposition used by m3d_parallel_cs (exposed for the analytical
/// cross-check in the Fig. 7 bench).
[[nodiscard]] core::AreaModel arch_area_model(const Architecture& arch,
                                              const tech::FoundryM3dPdk& pdk);

/// Full Fig.-7-style comparison of one architecture: 2D (n_cs = 1) vs M3D.
struct DesignPointBenefit {
  std::string architecture;
  std::int64_t n_cs = 1;
  double speedup = 0.0;
  double energy_ratio = 0.0;  ///< E_3D / E_2D
  double edp_benefit = 0.0;
  NetworkCost cost_2d;
  NetworkCost cost_3d;
};

[[nodiscard]] DesignPointBenefit evaluate_benefit(const nn::Network& net,
                                                  const Architecture& arch,
                                                  const SystemCosts& sys,
                                                  const tech::FoundryM3dPdk& pdk);

}  // namespace uld3d::mapper
