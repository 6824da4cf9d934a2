#include "uld3d/mapper/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"

namespace uld3d::mapper {

namespace {

double buffer_energy(const OperandBuffers& buffers, const OperandTraffic& t) {
  return t.reg_bits * buffers.reg.access_energy_pj_per_bit +
         t.local_bits * buffers.local.access_energy_pj_per_bit +
         t.global_bits * buffers.global.access_energy_pj_per_bit;
}

/// Time the (per-CS) buffer levels need to move their traffic.
double buffer_cycles(const OperandBuffers& buffers, const OperandTraffic& t) {
  double cycles = 0.0;
  if (t.local_bits > 0.0 && buffers.local.bandwidth_bits_per_cycle > 0.0) {
    cycles = std::max(cycles, t.local_bits / buffers.local.bandwidth_bits_per_cycle);
  }
  if (t.global_bits > 0.0 && buffers.global.bandwidth_bits_per_cycle > 0.0) {
    cycles = std::max(cycles, t.global_bits / buffers.global.bandwidth_bits_per_cycle);
  }
  return cycles;
}

LayerCost price_candidate(const nn::ConvSpec& conv, const TemporalMapping& m,
                          const Architecture& arch, const SystemCosts& sys,
                          std::int64_t n_cs) {
  LayerCost cost;
  cost.layer = conv.name;
  cost.mapping_order = m.order;
  cost.utilization = m.utilization;

  // --- parallel partitioning: the mapper hybrid-splits K tiles and output
  //     rows across CSs, searching the (k_par, oy_par) split that maximizes
  //     used CSs (a mapping freedom ZigZag also explores; the fixed Sec.-II
  //     SoC in uld3d::sim deliberately does NOT have it) ---
  const std::int64_t oy_outer = ceil_div(conv.oy, arch.spatial.oy);
  std::int64_t k_par = 1;
  std::int64_t oy_par = 1;
  for (std::int64_t k = 1; k <= std::min<std::int64_t>(n_cs, m.k_outer); ++k) {
    const std::int64_t oy = std::min<std::int64_t>(n_cs / k, oy_outer);
    if (k * oy >= k_par * oy_par) {  // prefer larger k: splits weight traffic
      k_par = k;
      oy_par = oy;
    }
  }
  const std::int64_t nmax = k_par * oy_par;
  cost.cs_used = nmax;
  const double share = 1.0 / static_cast<double>(nmax);

  cost.compute_cycles = m.compute_cycles * share;

  // --- RRAM port occupancy per CS: weights split along K (replicated across
  //     the oy_par row groups), inputs split along OY (replicated across the
  //     k_par channel groups), outputs fully split ---
  const double rram_reads_per_cs =
      m.weights.rram_read_bits / static_cast<double>(k_par) +
      m.inputs.rram_read_bits / static_cast<double>(oy_par);
  const double rram_writes_per_cs = m.outputs.rram_write_bits * share;
  cost.rram_cycles = (rram_reads_per_cs + rram_writes_per_cs *
                                              sys.rram_write_occupancy) /
                     arch.rram_bandwidth_bits_per_cycle;

  const double buf_cycles =
      (buffer_cycles(arch.inputs, m.inputs) +
       buffer_cycles(arch.weights, m.weights) +
       buffer_cycles(arch.outputs, m.outputs)) *
      share;
  cost.latency_cycles =
      std::max({cost.compute_cycles, cost.rram_cycles, buf_cycles});

  // --- energy (whole system; traffic volumes are per unique bit) ---
  const double macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy *
                                          conv.fx * conv.fy);
  cost.mac_energy_pj = macs * arch.mac_energy_pj;
  cost.buffer_energy_pj = buffer_energy(arch.weights, m.weights) +
                          buffer_energy(arch.inputs, m.inputs) +
                          buffer_energy(arch.outputs, m.outputs);
  const double access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  cost.rram_energy_pj =
      access_scale *
      ((m.weights.rram_read_bits + m.inputs.rram_read_bits) *
           arch.rram_read_pj_per_bit +
       m.outputs.rram_write_bits * arch.rram_write_pj_per_bit);

  const double n = static_cast<double>(n_cs);
  const double bank_scale =
      1.0 + sys.extra_bank_idle_fraction * (n - 1.0);
  const double mem_idle =
      sys.mem_idle_pj_per_cycle * bank_scale *
      std::max(0.0, cost.latency_cycles - cost.rram_cycles);
  const double nm = static_cast<double>(nmax);
  const double cs_idle =
      sys.cs_idle_pj_per_cycle *
      ((n - nm) * cost.latency_cycles +
       nm * std::max(0.0, cost.latency_cycles - cost.compute_cycles));
  cost.idle_energy_pj = mem_idle + cs_idle;

  cost.energy_pj = cost.mac_energy_pj + cost.buffer_energy_pj +
                   cost.rram_energy_pj + cost.idle_energy_pj;
  return cost;
}

LayerCost price_vector_layer(const nn::Layer& layer, const Architecture& arch,
                             const SystemCosts& sys, std::int64_t n_cs) {
  // Pool/eltwise on the single shared vector unit (Sec.-II SoC organisation).
  LayerCost cost;
  cost.layer = layer.name();
  cost.mapping_order = "vector";
  cost.cs_used = 1;
  const double ops = static_cast<double>(layer.ops());
  constexpr double kVectorOpsPerCycle = 64.0;
  cost.compute_cycles = ops / kVectorOpsPerCycle;
  const double i_bits = static_cast<double>(layer.input_bits(arch.activation_bits));
  const double o_bits = static_cast<double>(layer.output_bits(arch.activation_bits));
  cost.rram_cycles = (i_bits + o_bits * sys.rram_write_occupancy) /
                     arch.rram_bandwidth_bits_per_cycle;
  cost.latency_cycles = std::max(cost.compute_cycles, cost.rram_cycles);
  const double access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  cost.mac_energy_pj = ops * 0.5;  // vector op energy
  cost.rram_energy_pj = access_scale * (i_bits * arch.rram_read_pj_per_bit +
                                        o_bits * arch.rram_write_pj_per_bit);
  const double n = static_cast<double>(n_cs);
  const double bank_scale = 1.0 + sys.extra_bank_idle_fraction * (n - 1.0);
  cost.idle_energy_pj =
      sys.mem_idle_pj_per_cycle * bank_scale *
          std::max(0.0, cost.latency_cycles - cost.rram_cycles) +
      sys.cs_idle_pj_per_cycle * n * cost.latency_cycles;
  cost.energy_pj = cost.mac_energy_pj + cost.rram_energy_pj +
                   cost.idle_energy_pj;
  cost.utilization = 0.0;
  return cost;
}

}  // namespace

LayerCost price_conv(const nn::ConvSpec& conv, const Architecture& arch,
                     const SystemCosts& sys, std::int64_t n_cs) {
  expects(n_cs >= 1, "need at least one CS");
  // Per-thread scratch: the candidate vector ratchets capacity and is fully
  // rewritten each call, so steady-state enumeration does not reallocate.
  thread_local std::vector<TemporalMapping> candidates;
  candidate_mappings(conv, arch, candidates);
  // Named up front, so "nothing beat +inf" (every EDP overflowed) carries
  // the layer's name, as a MapCache hit returns it.
  LayerCost best;
  best.layer = conv.name;
  double best_edp = std::numeric_limits<double>::infinity();
  for (const auto& m : candidates) {
    LayerCost c = price_candidate(conv, m, arch, sys, n_cs);
    const double edp = c.latency_cycles * c.energy_pj;
    if (edp < best_edp) {
      best_edp = edp;
      best = std::move(c);
    }
  }
  return best;
}

LayerCost evaluate_conv(const nn::ConvSpec& conv, const Architecture& arch,
                        const SystemCosts& sys, std::int64_t n_cs) {
  // Checked before the probe, so an invalid call neither counts a miss nor
  // is answered from a stored entry.
  expects(n_cs >= 1, "need at least one CS");
  MapCache& cache = MapCache::instance();
  if (!cache.enabled()) return price_conv(conv, arch, sys, n_cs);
  const MapCache::Key cache_key = MapCache::key(conv, arch, sys, n_cs);
  if (std::optional<LayerCost> hit = cache.lookup(cache_key)) {
    // The key excludes layer names; restore the caller's so cache-on and
    // cache-off outputs are byte-identical.
    hit->layer = conv.name;
    return std::move(*hit);
  }
  LayerCost cost = price_conv(conv, arch, sys, n_cs);
  cache.insert(cache_key, cost);
  return cost;
}

NetworkCost evaluate_network(const nn::Network& net, const Architecture& arch,
                             const SystemCosts& sys, std::int64_t n_cs) {
  NetworkCost total;
  total.network = net.name();
  total.architecture = arch.name;
  total.n_cs = n_cs;
  total.layers.reserve(net.layers().size());
  for (const auto& layer : net.layers()) {
    LayerCost c = layer.is_conv()
                      ? evaluate_conv(layer.conv(), arch, sys, n_cs)
                      : price_vector_layer(layer, arch, sys, n_cs);
    total.latency_cycles += c.latency_cycles;
    total.energy_pj += c.energy_pj;
    total.layers.push_back(std::move(c));
  }
  return total;
}

core::AreaModel arch_area_model(const Architecture& arch,
                                const tech::FoundryM3dPdk& pdk) {
  core::AreaModel area;
  area.cs_area_um2 = arch.cs_area_um2(pdk.si_library());
  const auto macro = pdk.rram_macro(arch.rram_capacity_bits, 8, /*m3d=*/false);
  area.mem_cells_area_um2 = macro.cell_array_area_um2;
  area.mem_perif_area_um2 = macro.periph_area_um2;
  // Bus/IO plus the chip-level global SRAM (shared; neither replicated with
  // the CS nor freed by the M3D move).
  constexpr double kSramBitAreaUm2 = 2.0;
  constexpr double kPlacementUtilization = 0.75;
  area.bus_area_um2 =
      0.03 * (area.cs_area_um2 + area.mem_cells_area_um2 +
              area.mem_perif_area_um2) +
      arch.global_sram_bits() * kSramBitAreaUm2 / kPlacementUtilization;
  return area;
}

std::int64_t m3d_parallel_cs(const Architecture& arch,
                             const tech::FoundryM3dPdk& pdk) {
  return arch_area_model(arch, pdk).m3d_parallel_cs();
}

DesignPointBenefit evaluate_benefit(const nn::Network& net,
                                    const Architecture& arch,
                                    const SystemCosts& sys,
                                    const tech::FoundryM3dPdk& pdk) {
  DesignPointBenefit b;
  b.architecture = arch.name;
  b.n_cs = m3d_parallel_cs(arch, pdk);
  b.cost_2d = evaluate_network(net, arch, sys, 1);
  b.cost_3d = evaluate_network(net, arch, sys, b.n_cs);
  b.speedup = b.cost_2d.latency_cycles / b.cost_3d.latency_cycles;
  b.energy_ratio = b.cost_3d.energy_pj / b.cost_2d.energy_pj;
  b.edp_benefit = b.cost_2d.edp() / b.cost_3d.edp();
  return b;
}

}  // namespace uld3d::mapper
