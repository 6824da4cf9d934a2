// Cost model pricing temporal mappings, and the 2D-vs-M3D design-point
// evaluator used by the paper's Fig. 7 study.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uld3d/core/area_model.hpp"
#include "uld3d/mapper/architecture.hpp"
#include "uld3d/mapper/temporal_mapping.hpp"
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

/// Price one conv mapping candidate on `n_cs` parallel CSs (K-partitioned,
/// weights/outputs split, inputs replicated — the same semantics as the
/// systolic simulator) and return the cheapest-EDP candidate.  Uncached:
/// the spatial search prices its candidate unrollings here, because a
/// MapCache probe costs as much as this call (DESIGN.md §10).
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
