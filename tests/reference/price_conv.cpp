#include "price_conv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"

namespace uld3d::mapper::reference {

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

}  // namespace

double spatial_utilization(const nn::ConvSpec& conv,
                           const SpatialUnrolling& spatial) {
  return fill(conv.k, spatial.k) * fill(conv.c, spatial.c) *
         fill(conv.ox, spatial.ox) * fill(conv.oy, spatial.oy);
}

std::vector<TemporalMapping> candidate_mappings(const nn::ConvSpec& conv,
                                                const Architecture& arch) {
  std::vector<TemporalMapping> candidates;
  candidate_mappings(conv, arch, candidates);
  return candidates;
}

void candidate_mappings(const nn::ConvSpec& conv, const Architecture& arch,
                        std::vector<TemporalMapping>& candidates) {
  arch.validate();
  const std::int64_t pes = arch.spatial.total_pes();
  const double wb = static_cast<double>(arch.weight_bits);
  const double ab = static_cast<double>(arch.activation_bits);
  const double pb = static_cast<double>(arch.psum_bits);

  const double macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy *
                                          conv.fx * conv.fy);
  const double w_bits = static_cast<double>(conv.k * conv.c * conv.fx * conv.fy) * wb;
  const double i_bits =
      static_cast<double>(conv.c * conv.input_x() * conv.input_y()) * ab;
  const double o_bits = static_cast<double>(conv.k * conv.ox * conv.oy) * ab;
  const double o_psum_bits = static_cast<double>(conv.k * conv.ox * conv.oy) * pb;

  TemporalMapping proto;
  proto.k_outer = ceil_div(conv.k, arch.spatial.k);
  proto.c_outer = ceil_div(conv.c, arch.spatial.c);
  proto.taps = conv.fx * conv.fy;
  proto.utilization = reference::spatial_utilization(conv, arch.spatial);
  proto.compute_cycles = macs / (static_cast<double>(pes) * proto.utilization);

  // Traffic common to all candidates.
  const auto common = [&](TemporalMapping& m) {
    // Every MAC reads a weight and writes/reads a partial sum at the PE.
    m.weights.reg_bits += macs * wb;
    m.outputs.reg_bits += 2.0 * macs * pb;
    // Weights enter the chip exactly once per re-fetch pass (set by caller
    // via m.weights.rram_read_bits).  Final outputs are written to RRAM.
    m.outputs.rram_write_bits += o_bits;
  };

  candidates.clear();
  candidates.reserve(3);  // the three canonical orders below

  {  // A. weight-outer: inputs re-fetched once per (k_outer, tap).
    TemporalMapping m = proto;
    m.order = "weight-outer";
    common(m);
    m.weights.rram_read_bits += w_bits;
    const double repeats =
        static_cast<double>(m.k_outer) * static_cast<double>(m.taps);
    route_reads(arch.inputs, i_bits, i_bits * repeats, i_bits, pes, m.inputs);
    // Per-K-tile psum slice must stay resident across (c_outer, taps).
    const double psum_tile = o_psum_bits / static_cast<double>(m.k_outer);
    if (psum_capacity(arch.outputs, pes) < psum_tile) {
      // Spill: one read+write round trip per accumulation pass beyond the first.
      const double passes =
          static_cast<double>(m.c_outer) * static_cast<double>(m.taps) - 1.0;
      m.outputs.global_bits += 2.0 * std::max(0.0, passes) * o_psum_bits;
    }
    candidates.push_back(std::move(m));
  }

  {  // B. input-outer: inputs fetched once per tap; full-K psums resident.
    TemporalMapping m = proto;
    m.order = "input-outer";
    common(m);
    m.weights.rram_read_bits += w_bits;
    route_reads(arch.inputs, i_bits, i_bits * static_cast<double>(m.taps),
                i_bits, pes, m.inputs);
    if (psum_capacity(arch.outputs, pes) < o_psum_bits) {
      const double passes = static_cast<double>(m.c_outer) *
                                static_cast<double>(m.taps) *
                                static_cast<double>(m.k_outer) -
                            static_cast<double>(m.k_outer);
      m.outputs.global_bits += 2.0 * std::max(0.0, passes) *
                               (o_psum_bits / static_cast<double>(m.k_outer));
    }
    candidates.push_back(std::move(m));
  }

  {  // C. pixel-tiled: shrink the psum working set; weights re-fetched per tile.
    TemporalMapping m = proto;
    m.order = "pixel-tiled";
    common(m);
    const double cap = psum_capacity(arch.outputs, pes);
    const double tiles =
        cap > 0.0 ? std::max(1.0, std::ceil(o_psum_bits / cap)) : 1.0;
    m.weights.rram_read_bits += w_bits * tiles;
    route_reads(arch.inputs, i_bits / tiles,
                i_bits * static_cast<double>(m.taps), i_bits, pes, m.inputs);
    candidates.push_back(std::move(m));
  }

  ensures(!candidates.empty(), "mapping candidates must be non-empty");
}

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

std::vector<SpatialUnrolling> enumerate_unrollings(std::int64_t total_pes) {
  expects(total_pes >= 1 && (total_pes & (total_pes - 1)) == 0,
          "PE budget must be a power of two");
  std::vector<SpatialUnrolling> out;
  // total_pes = 2^e yields C(e+3, 3) = (e+1)(e+2)(e+3)/6 factorizations:
  // choose exponents for (k, c, ox); oy takes the remainder.
  std::int64_t e = 0;
  while ((std::int64_t{1} << e) < total_pes) ++e;
  out.reserve(static_cast<std::size_t>((e + 1) * (e + 2) * (e + 3) / 6));
  for (std::int64_t k = 1; k <= total_pes; k *= 2) {
    for (std::int64_t c = 1; k * c <= total_pes; c *= 2) {
      for (std::int64_t ox = 1; k * c * ox <= total_pes; ox *= 2) {
        const std::int64_t oy = total_pes / (k * c * ox);
        out.push_back({k, c, ox, oy});
      }
    }
  }
  return out;
}

}  // namespace uld3d::mapper::reference
