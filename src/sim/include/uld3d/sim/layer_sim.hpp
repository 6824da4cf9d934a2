// Cycle/energy model of one network layer on one accelerator configuration.
//
// Timing model (per parallel CS, all CSs run the same schedule):
//   * Convolutions partition output channels (K tiles) across the N_max =
//     min(N, k_tiles) active CSs.  Each CS processes its tiles back to back;
//     a tile overlaps its weight load with the previous tile's streaming
//     (double buffering) and pays a fixed sync overhead.
//   * Memory occupancy per CS: its private weight shard plus the FULL input
//     activation map (K-partitioning replicates input traffic — the paper's
//     conservative D0*N/B_3D bandwidth term) plus its output shard at RRAM
//     write bandwidth.  Execution time is max(compute, memory) per CS.
//   * Pooling/eltwise layers run channel-partitioned on the vector units.
//
// Energy model: MACs/vector-ops at fixed energy per op; RRAM traffic at
// alpha pJ/bit charged per UNIQUE bit (the dense lower-BEOL routing lets one
// sense operation drive multiple CS ports, so replicated reads cost port
// time but not repeated sense energy); memory peripheral and CS idle energy
// follow the paper's Eq. (6)/(7) structure.
#pragma once

#include <string>

#include "uld3d/nn/layer.hpp"
#include "uld3d/sim/accelerator_config.hpp"
#include "uld3d/sim/tiling.hpp"

namespace uld3d::sim {

/// Per-layer simulation outcome.
struct LayerResult {
  std::string name;
  std::int64_t cycles = 0;          ///< wall-clock cycles for the layer
  double compute_cycles = 0.0;      ///< per-CS compute occupancy
  double memory_cycles = 0.0;       ///< per-CS memory-port occupancy
  std::int64_t cs_used = 1;         ///< N_max actually active
  double energy_pj = 0.0;           ///< total system energy
  double compute_energy_pj = 0.0;
  double memory_energy_pj = 0.0;
  double idle_energy_pj = 0.0;
  double utilization = 0.0;         ///< MAC utilization of active CSs
  bool memory_bound = false;
};

/// Simulate one layer on `cfg`.
[[nodiscard]] LayerResult simulate_layer(const nn::Layer& layer,
                                         const AcceleratorConfig& cfg);

}  // namespace uld3d::sim
