#include "uld3d/mapper/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"

namespace uld3d::mapper {

namespace {

double fill(std::int64_t dim, std::int64_t unroll) {
  const std::int64_t outer = ceil_div(dim, unroll);
  return static_cast<double>(dim) /
         static_cast<double>(outer * unroll);
}

/// Route `volume` bits of read traffic for one operand down the hierarchy:
/// the innermost level large enough to hold `resident_bits` serves the
/// repeated reads; every level above sees the data only once.
void route_reads(const OperandBuffers& buffers, double resident_bits,
                 double repeated_bits, double once_bits, std::int64_t pes,
                 OperandTraffic& t) {
  const double reg_cap = buffers.reg.capacity_bits * static_cast<double>(pes);
  if (reg_cap >= resident_bits && reg_cap > 0.0) {
    t.reg_bits += repeated_bits;
    t.rram_read_bits += once_bits;
    return;
  }
  if (buffers.local.capacity_bits >= resident_bits &&
      buffers.local.capacity_bits > 0.0) {
    t.local_bits += repeated_bits;
    t.rram_read_bits += once_bits;
    return;
  }
  if (buffers.global.capacity_bits >= resident_bits &&
      buffers.global.capacity_bits > 0.0) {
    t.global_bits += repeated_bits;
    t.rram_read_bits += once_bits;
    return;
  }
  // Nothing holds the working set: every repeated fetch goes to RRAM.
  t.rram_read_bits += repeated_bits;
}

/// Capacity available to hold partial sums (registers + local + global).
double psum_capacity(const OperandBuffers& outputs, std::int64_t pes) {
  return outputs.reg.capacity_bits * static_cast<double>(pes) +
         outputs.local.capacity_bits + outputs.global.capacity_bits;
}

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

ConvVolumes conv_volumes(const nn::ConvSpec& conv, const Architecture& arch) {
  const double wb = static_cast<double>(arch.weight_bits);
  const double ab = static_cast<double>(arch.activation_bits);
  const double pb = static_cast<double>(arch.psum_bits);
  ConvVolumes v;
  v.macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy * conv.fx *
                               conv.fy);
  v.weight_bits =
      static_cast<double>(conv.k * conv.c * conv.fx * conv.fy) * wb;
  v.input_bits =
      static_cast<double>(conv.c * conv.input_x() * conv.input_y()) * ab;
  v.output_bits = static_cast<double>(conv.k * conv.ox * conv.oy) * ab;
  v.psum_bits = static_cast<double>(conv.k * conv.ox * conv.oy) * pb;
  return v;
}

/// The split of `k_outer` K tiles and `oy_outer` output-row tiles that
/// CsSplit describes.
CsSplit cs_split(std::int64_t n_cs, std::int64_t k_outer,
                 std::int64_t oy_outer) {
  CsSplit split;
  for (std::int64_t k = 1; k <= std::min<std::int64_t>(n_cs, k_outer); ++k) {
    const std::int64_t oy = std::min<std::int64_t>(n_cs / k, oy_outer);
    if (k * oy >= split.k_par * split.oy_par) {  // prefer larger k
      split.k_par = k;
      split.oy_par = oy;
    }
  }
  return split;
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

double spatial_utilization(const nn::ConvSpec& conv,
                           const SpatialUnrolling& spatial) {
  return fill(conv.k, spatial.k) * fill(conv.c, spatial.c) *
         fill(conv.ox, spatial.ox) * fill(conv.oy, spatial.oy);
}

LayerCost UnrollingCost::to_layer_cost(const std::string& layer) const {
  LayerCost cost;
  cost.layer = layer;
  if (order >= 0) cost.mapping_order = ConvPricer::kOrders[order];
  cost.latency_cycles = latency_cycles;
  cost.compute_cycles = compute_cycles;
  cost.rram_cycles = rram_cycles;
  cost.energy_pj = energy_pj;
  cost.mac_energy_pj = mac_energy_pj;
  cost.buffer_energy_pj = buffer_energy_pj;
  cost.rram_energy_pj = rram_energy_pj;
  cost.idle_energy_pj = idle_energy_pj;
  cost.utilization = utilization;
  cost.cs_used = cs_used;
  return cost;
}

ConvPricer::OperandTerms ConvPricer::terms(const OperandBuffers& buffers,
                                           const OperandTraffic& t) {
  return {t.rram_read_bits, t.rram_write_bits, buffer_cycles(buffers, t),
          buffer_energy(buffers, t)};
}

ConvPricer::ConvPricer(const nn::ConvSpec& conv, const Architecture& arch,
                       const SystemCosts& sys, std::int64_t n_cs)
    : arch_(arch), sys_(sys) {
  expects(n_cs >= 1, "need at least one CS");
  arch.validate();
  pes_ = arch.spatial.total_pes();
  n_ = static_cast<double>(n_cs);
  access_scale_ = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  bank_scale_ = 1.0 + sys.extra_bank_idle_fraction * (n_ - 1.0);
  const double wb = static_cast<double>(arch.weight_bits);
  const double pb = static_cast<double>(arch.psum_bits);
  volumes_ = conv_volumes(conv, arch);
  const double macs = volumes_.macs;
  const double w_bits = volumes_.weight_bits;
  const double i_bits = volumes_.input_bits;
  const double o_psum_bits = volumes_.psum_bits;
  mac_energy_pj_ = macs * arch.mac_energy_pj;
  taps_ = static_cast<double>(conv.fx * conv.fy);
  psum_capacity_ = psum_capacity(arch.outputs, pes_);

  // Traffic common to all orders: every MAC reads a weight and writes/reads
  // a partial sum at the PE; final outputs are written to RRAM once.
  OperandTraffic outputs;
  outputs.reg_bits += 2.0 * macs * pb;
  outputs.rram_write_bits += volumes_.output_bits;
  out_reg_bits_ = outputs.reg_bits;
  out_write_bits_ = outputs.rram_write_bits;
  OperandTraffic weights;
  weights.reg_bits += macs * wb;

  // A. weight-outer and B. input-outer: weights enter the chip once.
  OperandTraffic once = weights;
  once.rram_read_bits += w_bits;
  weights_once_ = terms(arch.weights, once);
  // B: inputs fetched once per tap (its psum spill depends on k_outer).
  OperandTraffic b_inputs;
  route_reads(arch.inputs, i_bits, i_bits * taps_, i_bits, pes_, b_inputs);
  b_inputs_ = terms(arch.inputs, b_inputs);

  // C. pixel-tiled: shrink the psum working set; weights re-fetched per
  // tile.  Nothing here depends on the unrolling beyond the PE count.
  const double cap = psum_capacity_;
  const double tiles =
      cap > 0.0 ? std::max(1.0, std::ceil(o_psum_bits / cap)) : 1.0;
  weights.rram_read_bits += w_bits * tiles;
  c_weights_ = terms(arch.weights, weights);
  OperandTraffic c_inputs;
  route_reads(arch.inputs, i_bits / tiles, i_bits * taps_, i_bits, pes_,
              c_inputs);
  c_inputs_ = terms(arch.inputs, c_inputs);
  c_outputs_ = terms(arch.outputs, outputs);
}

UnrollingCost ConvPricer::price(std::int64_t k_outer, std::int64_t c_outer,
                                double utilization, CsSplit split) const {
  const double k_tiles = static_cast<double>(k_outer);
  const double i_bits = volumes_.input_bits;
  const double o_psum_bits = volumes_.psum_bits;
  // A: inputs re-fetched once per (k_outer, tap); the per-K-tile psum slice
  // must stay resident across (c_outer, taps) or spill.
  OperandTraffic a_inputs_traffic;
  route_reads(arch_.inputs, i_bits, i_bits * (k_tiles * taps_), i_bits,
              pes_, a_inputs_traffic);
  const OperandTerms a_inputs = terms(arch_.inputs, a_inputs_traffic);
  OperandTraffic a_outputs_traffic{out_reg_bits_, 0.0, 0.0, 0.0,
                                   out_write_bits_};
  if (psum_capacity_ < o_psum_bits / k_tiles) {
    // One read+write round trip per accumulation pass beyond the first.
    const double passes = static_cast<double>(c_outer) * taps_ - 1.0;
    a_outputs_traffic.global_bits +=
        2.0 * std::max(0.0, passes) * o_psum_bits;
  }
  const OperandTerms a_outputs = terms(arch_.outputs, a_outputs_traffic);
  // B: the full-K psums stay resident across passes or spill.
  OperandTraffic b_outputs_traffic{out_reg_bits_, 0.0, 0.0, 0.0,
                                   out_write_bits_};
  if (psum_capacity_ < o_psum_bits) {
    const double passes =
        static_cast<double>(c_outer) * taps_ * k_tiles - k_tiles;
    b_outputs_traffic.global_bits +=
        2.0 * std::max(0.0, passes) * (o_psum_bits / k_tiles);
  }
  const OperandTerms b_outputs = terms(arch_.outputs, b_outputs_traffic);

  const std::int64_t nmax = split.k_par * split.oy_par;
  const double share = 1.0 / static_cast<double>(nmax);
  const double nm = static_cast<double>(nmax);
  const double compute_cycles =
      volumes_.macs / (static_cast<double>(pes_) * utilization) * share;
  // RRAM port occupancy per CS: weights split along K (replicated across
  // the oy_par row groups), inputs split along OY (replicated across the
  // k_par channel groups), outputs fully split.
  const double k_groups = static_cast<double>(split.k_par);
  const double oy_groups = static_cast<double>(split.oy_par);

  UnrollingCost best;
  double best_edp = std::numeric_limits<double>::infinity();
  const auto consider = [&](int order, const OperandTerms& w,
                            const OperandTerms& i, const OperandTerms& o) {
    UnrollingCost cost;
    cost.order = order;
    cost.utilization = utilization;
    cost.cs_used = nmax;
    cost.compute_cycles = compute_cycles;
    const double rram_reads_per_cs =
        w.rram_read_bits / k_groups + i.rram_read_bits / oy_groups;
    const double rram_writes_per_cs = o.rram_write_bits * share;
    cost.rram_cycles = (rram_reads_per_cs + rram_writes_per_cs *
                                                sys_.rram_write_occupancy) /
                       arch_.rram_bandwidth_bits_per_cycle;
    const double buf_cycles = (i.cycles + w.cycles + o.cycles) * share;
    cost.latency_cycles =
        std::max({cost.compute_cycles, cost.rram_cycles, buf_cycles});

    // Energy (whole system; traffic volumes are per unique bit).
    cost.mac_energy_pj = mac_energy_pj_;
    cost.buffer_energy_pj = w.energy_pj + i.energy_pj + o.energy_pj;
    cost.rram_energy_pj =
        access_scale_ * ((w.rram_read_bits + i.rram_read_bits) *
                             arch_.rram_read_pj_per_bit +
                         o.rram_write_bits * arch_.rram_write_pj_per_bit);
    const double mem_idle =
        sys_.mem_idle_pj_per_cycle * bank_scale_ *
        std::max(0.0, cost.latency_cycles - cost.rram_cycles);
    const double cs_idle =
        sys_.cs_idle_pj_per_cycle *
        ((n_ - nm) * cost.latency_cycles +
         nm * std::max(0.0, cost.latency_cycles - cost.compute_cycles));
    cost.idle_energy_pj = mem_idle + cs_idle;
    cost.energy_pj = cost.mac_energy_pj + cost.buffer_energy_pj +
                     cost.rram_energy_pj + cost.idle_energy_pj;
    if (cost.edp() < best_edp) {
      best_edp = cost.edp();
      best = cost;
    }
  };
  consider(0, weights_once_, a_inputs, a_outputs);
  consider(1, weights_once_, b_inputs_, b_outputs);
  consider(2, c_weights_, c_inputs_, c_outputs_);
  return best;
}

LayerCost price_conv(const nn::ConvSpec& conv, const Architecture& arch,
                     const SystemCosts& sys, std::int64_t n_cs) {
  const ConvPricer pricer(conv, arch, sys, n_cs);
  const std::int64_t k_outer = ceil_div(conv.k, arch.spatial.k);
  const CsSplit split =
      cs_split(n_cs, k_outer, ceil_div(conv.oy, arch.spatial.oy));
  // Named even when nothing beat +inf (every EDP overflowed), as a MapCache
  // hit returns it.
  return pricer
      .price(k_outer, ceil_div(conv.c, arch.spatial.c),
             spatial_utilization(conv, arch.spatial), split)
      .to_layer_cost(conv.name);
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
