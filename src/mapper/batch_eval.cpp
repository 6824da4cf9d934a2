#include "uld3d/mapper/batch_eval.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "uld3d/util/math.hpp"
#include "uld3d/util/simd.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define ULD3D_BATCH_X86 1
#include <immintrin.h>
#define ULD3D_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ULD3D_BATCH_X86 0
#endif

namespace uld3d::mapper {

namespace {

std::atomic<bool>& batch_flag() {
  static std::atomic<bool> enabled{!simd::disabled_by_env()};
  return enabled;
}

double buffer_energy(const OperandBuffers& buffers, const OperandTraffic& t) {
  return t.reg_bits * buffers.reg.access_energy_pj_per_bit +
         t.local_bits * buffers.local.access_energy_pj_per_bit +
         t.global_bits * buffers.global.access_energy_pj_per_bit;
}

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

/// Batch-invariant scalars: everything price_candidate derives from
/// (conv, arch, sys, n_cs) alone.  Products of constants (mac_energy,
/// mem_idle_coeff) are formed with the seed's association so the per-lane
/// arithmetic that consumes them stays bit-identical.
struct BatchConsts {
  std::int64_t n_cs = 1;
  std::int64_t oy_outer = 1;
  double n = 1.0;
  double macs = 0.0;
  double mac_energy = 0.0;
  double access_scale = 1.0;
  double mem_idle_coeff = 0.0;  ///< mem_idle_pj_per_cycle * bank_scale
  double cs_idle_pj = 0.0;
  double rram_occupancy = 0.0;
  double rram_bw = 0.0;
  double rram_read_pj = 0.0;
  double rram_write_pj = 0.0;
  // Per-operand buffer constants (level energies + bandwidths).
  double w_e_reg = 0.0, w_e_local = 0.0, w_e_global = 0.0;
  double i_e_reg = 0.0, i_e_local = 0.0, i_e_global = 0.0;
  double o_e_reg = 0.0, o_e_local = 0.0, o_e_global = 0.0;
  double w_bw_local = 0.0, w_bw_global = 0.0;
  double i_bw_local = 0.0, i_bw_global = 0.0;
  double o_bw_local = 0.0, o_bw_global = 0.0;
};

BatchConsts make_consts(const nn::ConvSpec& conv, const Architecture& arch,
                        const SystemCosts& sys, std::int64_t n_cs) {
  BatchConsts c;
  c.n_cs = n_cs;
  c.oy_outer = ceil_div(conv.oy, arch.spatial.oy);
  c.n = static_cast<double>(n_cs);
  c.macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy * conv.fx *
                               conv.fy);
  c.mac_energy = c.macs * arch.mac_energy_pj;
  c.access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  const double bank_scale =
      1.0 + sys.extra_bank_idle_fraction * (c.n - 1.0);
  c.mem_idle_coeff = sys.mem_idle_pj_per_cycle * bank_scale;
  c.cs_idle_pj = sys.cs_idle_pj_per_cycle;
  c.rram_occupancy = sys.rram_write_occupancy;
  c.rram_bw = arch.rram_bandwidth_bits_per_cycle;
  c.rram_read_pj = arch.rram_read_pj_per_bit;
  c.rram_write_pj = arch.rram_write_pj_per_bit;
  c.w_e_reg = arch.weights.reg.access_energy_pj_per_bit;
  c.w_e_local = arch.weights.local.access_energy_pj_per_bit;
  c.w_e_global = arch.weights.global.access_energy_pj_per_bit;
  c.i_e_reg = arch.inputs.reg.access_energy_pj_per_bit;
  c.i_e_local = arch.inputs.local.access_energy_pj_per_bit;
  c.i_e_global = arch.inputs.global.access_energy_pj_per_bit;
  c.o_e_reg = arch.outputs.reg.access_energy_pj_per_bit;
  c.o_e_local = arch.outputs.local.access_energy_pj_per_bit;
  c.o_e_global = arch.outputs.global.access_energy_pj_per_bit;
  c.w_bw_local = arch.weights.local.bandwidth_bits_per_cycle;
  c.w_bw_global = arch.weights.global.bandwidth_bits_per_cycle;
  c.i_bw_local = arch.inputs.local.bandwidth_bits_per_cycle;
  c.i_bw_global = arch.inputs.global.bandwidth_bits_per_cycle;
  c.o_bw_local = arch.outputs.local.bandwidth_bits_per_cycle;
  c.o_bw_global = arch.outputs.global.bandwidth_bits_per_cycle;
  return c;
}

/// Pass 0 (scalar): the data-dependent (k_par, oy_par) split search.  Pure
/// integer work; stores the double casts the later passes divide by.
///
/// The seed search scans k = 1..min(n_cs, k_outer) with a `>=` tie-break —
/// a prefix property of k alone, since oy_outer and n_cs are batch
/// constants.  So the best split for every possible k_max is computed ONCE
/// per call (n_cs integer divisions total), and each candidate becomes a
/// table lookup instead of re-running the division loop.  The table entries
/// are exactly what the seed loop would produce for that k_max.
void split_pass(const BatchConsts& c, CandidateBatch& b, std::size_t n) {
  thread_local std::vector<std::int64_t> best_k;
  thread_local std::vector<std::int64_t> best_oy;
  const std::size_t table = static_cast<std::size_t>(c.n_cs) + 1;
  if (best_k.size() < table) {
    best_k.resize(table);
    best_oy.resize(table);
  }
  std::int64_t k_par = 1;
  std::int64_t oy_par = 1;
  best_k[0] = 1;
  best_oy[0] = 1;
  for (std::int64_t k = 1; k <= c.n_cs; ++k) {
    const std::int64_t oy = std::min<std::int64_t>(c.n_cs / k, c.oy_outer);
    if (k * oy >= k_par * oy_par) {
      k_par = k;
      oy_par = oy;
    }
    best_k[static_cast<std::size_t>(k)] = k_par;
    best_oy[static_cast<std::size_t>(k)] = oy_par;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k_max = static_cast<std::size_t>(
        std::min<std::int64_t>(c.n_cs, b.k_outer[i]));
    const std::int64_t kp = best_k[k_max];
    const std::int64_t op = best_oy[k_max];
    const std::int64_t nmax = kp * op;
    b.cs_used[i] = nmax;
    b.k_par_d[i] = static_cast<double>(kp);
    b.oy_par_d[i] = static_cast<double>(op);
    b.nmax_d[i] = static_cast<double>(nmax);
    b.share[i] = 1.0 / static_cast<double>(nmax);
  }
}

/// Scalar cost-term passes over [i0, i1): the seed expression trees applied
/// array-wise.  Also the tail handler for the AVX2 variant.
void price_range(const BatchConsts& c, CandidateBatch& b, std::size_t i0,
                 std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    b.out_compute_cycles[i] = b.compute_cycles[i] * b.share[i];
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const double reads =
        b.w_rram_read[i] / b.k_par_d[i] + b.i_rram_read[i] / b.oy_par_d[i];
    const double writes = b.o_rram_write[i] * b.share[i];
    b.rram_cycles[i] = (reads + writes * c.rram_occupancy) / c.rram_bw;
  }
  for (std::size_t i = i0; i < i1; ++i) {
    // Seed order: inputs + weights + outputs (buffer_cycles), then * share.
    double bi = 0.0;
    if (b.i_local[i] > 0.0 && c.i_bw_local > 0.0) {
      bi = std::max(bi, b.i_local[i] / c.i_bw_local);
    }
    if (b.i_global[i] > 0.0 && c.i_bw_global > 0.0) {
      bi = std::max(bi, b.i_global[i] / c.i_bw_global);
    }
    double bw = 0.0;
    if (b.w_local[i] > 0.0 && c.w_bw_local > 0.0) {
      bw = std::max(bw, b.w_local[i] / c.w_bw_local);
    }
    if (b.w_global[i] > 0.0 && c.w_bw_global > 0.0) {
      bw = std::max(bw, b.w_global[i] / c.w_bw_global);
    }
    double bo = 0.0;
    if (b.o_local[i] > 0.0 && c.o_bw_local > 0.0) {
      bo = std::max(bo, b.o_local[i] / c.o_bw_local);
    }
    if (b.o_global[i] > 0.0 && c.o_bw_global > 0.0) {
      bo = std::max(bo, b.o_global[i] / c.o_bw_global);
    }
    b.buffer_cycles[i] = (bi + bw + bo) * b.share[i];
  }
  for (std::size_t i = i0; i < i1; ++i) {
    // std::max({a, b, c}) keeps the first of equals: acc<next selection.
    double lat = b.out_compute_cycles[i];
    if (lat < b.rram_cycles[i]) lat = b.rram_cycles[i];
    if (lat < b.buffer_cycles[i]) lat = b.buffer_cycles[i];
    b.latency_cycles[i] = lat;
  }
  for (std::size_t i = i0; i < i1; ++i) {
    // Seed order: weights + inputs + outputs (buffer_energy).
    const double ew = b.w_reg[i] * c.w_e_reg + b.w_local[i] * c.w_e_local +
                      b.w_global[i] * c.w_e_global;
    const double ei = b.i_reg[i] * c.i_e_reg + b.i_local[i] * c.i_e_local +
                      b.i_global[i] * c.i_e_global;
    const double eo = b.o_reg[i] * c.o_e_reg + b.o_local[i] * c.o_e_local +
                      b.o_global[i] * c.o_e_global;
    b.buffer_energy[i] = ew + ei + eo;
  }
  for (std::size_t i = i0; i < i1; ++i) {
    b.rram_energy[i] =
        c.access_scale *
        ((b.w_rram_read[i] + b.i_rram_read[i]) * c.rram_read_pj +
         b.o_rram_write[i] * c.rram_write_pj);
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const double mem_idle =
        c.mem_idle_coeff *
        std::max(0.0, b.latency_cycles[i] - b.rram_cycles[i]);
    const double cs_idle =
        c.cs_idle_pj *
        ((c.n - b.nmax_d[i]) * b.latency_cycles[i] +
         b.nmax_d[i] *
             std::max(0.0, b.latency_cycles[i] - b.out_compute_cycles[i]));
    b.idle_energy[i] = mem_idle + cs_idle;
  }
  for (std::size_t i = i0; i < i1; ++i) {
    b.energy[i] = c.mac_energy + b.buffer_energy[i] + b.rram_energy[i] +
                  b.idle_energy[i];
  }
  for (std::size_t i = i0; i < i1; ++i) {
    b.edp[i] = b.latency_cycles[i] * b.energy[i];
  }
}

#if ULD3D_BATCH_X86

/// std::max(a, b) as a selection — (a < b) ? b : a — preserving the scalar
/// NaN/±0 semantics vmaxpd would not.
ULD3D_TARGET_AVX2 inline __m256d vmax_std(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}

/// One guarded buffer-cycle level: acc = bits > 0 ? max_std(acc, bits/bw)
/// : acc.  The bandwidth > 0 half of the seed's guard is batch-constant and
/// stays a branch at the call site; only the bits > 0 half is per-lane.
ULD3D_TARGET_AVX2 inline __m256d guarded_level_max(__m256d acc, __m256d bits,
                                                   __m256d bw) {
  const __m256d q = _mm256_div_pd(bits, bw);
  const __m256d maxed = vmax_std(acc, q);
  const __m256d gt0 = _mm256_cmp_pd(bits, _mm256_setzero_pd(), _CMP_GT_OQ);
  return _mm256_blendv_pd(acc, maxed, gt0);
}

/// reg*e_reg + local*e_local + global*e_global with the seed's left-to-right
/// association.
ULD3D_TARGET_AVX2 inline __m256d operand_energy(__m256d reg, __m256d local,
                                                __m256d global, __m256d e_reg,
                                                __m256d e_local,
                                                __m256d e_global) {
  return _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(reg, e_reg),
                                     _mm256_mul_pd(local, e_local)),
                       _mm256_mul_pd(global, e_global));
}

/// Fused single-pass kernel: every cost term for 4 candidates lives in
/// registers from load to EDP, and ONLY the edp array is stored — the term
/// arrays stay stale in [0, main) and the winner lane is re-priced with the
/// scalar trees afterwards (`price_range(win, win+1)`).  Fusing changes no
/// per-lane expression tree, so results stay bit-identical to price_range;
/// it exists purely to cut the memory traffic of pass-per-term evaluation
/// (~28 array streams down to 15).
ULD3D_TARGET_AVX2 void price_batch_avx2(const BatchConsts& c,
                                        CandidateBatch& b, std::size_t n) {
  const std::size_t main = n - n % 4;
  const __m256d zero = _mm256_setzero_pd();
  // Broadcast the batch constants once; loading from locals (not through
  // `c`) lets the compiler keep them hoisted across the edp stores.
  const __m256d v_occ = _mm256_set1_pd(c.rram_occupancy);
  const __m256d v_rram_bw = _mm256_set1_pd(c.rram_bw);
  const __m256d v_i_bw_l = _mm256_set1_pd(c.i_bw_local);
  const __m256d v_i_bw_g = _mm256_set1_pd(c.i_bw_global);
  const __m256d v_w_bw_l = _mm256_set1_pd(c.w_bw_local);
  const __m256d v_w_bw_g = _mm256_set1_pd(c.w_bw_global);
  const __m256d v_o_bw_l = _mm256_set1_pd(c.o_bw_local);
  const __m256d v_o_bw_g = _mm256_set1_pd(c.o_bw_global);
  const __m256d v_w_e_reg = _mm256_set1_pd(c.w_e_reg);
  const __m256d v_w_e_loc = _mm256_set1_pd(c.w_e_local);
  const __m256d v_w_e_glo = _mm256_set1_pd(c.w_e_global);
  const __m256d v_i_e_reg = _mm256_set1_pd(c.i_e_reg);
  const __m256d v_i_e_loc = _mm256_set1_pd(c.i_e_local);
  const __m256d v_i_e_glo = _mm256_set1_pd(c.i_e_global);
  const __m256d v_o_e_reg = _mm256_set1_pd(c.o_e_reg);
  const __m256d v_o_e_loc = _mm256_set1_pd(c.o_e_local);
  const __m256d v_o_e_glo = _mm256_set1_pd(c.o_e_global);
  const __m256d v_read_pj = _mm256_set1_pd(c.rram_read_pj);
  const __m256d v_write_pj = _mm256_set1_pd(c.rram_write_pj);
  const __m256d v_ascale = _mm256_set1_pd(c.access_scale);
  const __m256d v_mem_idle = _mm256_set1_pd(c.mem_idle_coeff);
  const __m256d v_cs_idle = _mm256_set1_pd(c.cs_idle_pj);
  const __m256d v_n = _mm256_set1_pd(c.n);
  const __m256d v_mac = _mm256_set1_pd(c.mac_energy);
  const bool i_l = c.i_bw_local > 0.0, i_g = c.i_bw_global > 0.0;
  const bool w_l = c.w_bw_local > 0.0, w_g = c.w_bw_global > 0.0;
  const bool o_l = c.o_bw_local > 0.0, o_g = c.o_bw_global > 0.0;
  for (std::size_t i = 0; i < main; i += 4) {
    const __m256d share = _mm256_load_pd(b.share.data() + i);
    const __m256d w_local = _mm256_load_pd(b.w_local.data() + i);
    const __m256d w_global = _mm256_load_pd(b.w_global.data() + i);
    const __m256d i_local = _mm256_load_pd(b.i_local.data() + i);
    const __m256d i_global = _mm256_load_pd(b.i_global.data() + i);
    const __m256d o_local = _mm256_load_pd(b.o_local.data() + i);
    const __m256d o_global = _mm256_load_pd(b.o_global.data() + i);
    const __m256d w_rram = _mm256_load_pd(b.w_rram_read.data() + i);
    const __m256d i_rram = _mm256_load_pd(b.i_rram_read.data() + i);
    const __m256d o_rram = _mm256_load_pd(b.o_rram_write.data() + i);

    const __m256d out_compute = _mm256_mul_pd(
        _mm256_load_pd(b.compute_cycles.data() + i), share);

    const __m256d reads = _mm256_add_pd(
        _mm256_div_pd(w_rram, _mm256_load_pd(b.k_par_d.data() + i)),
        _mm256_div_pd(i_rram, _mm256_load_pd(b.oy_par_d.data() + i)));
    const __m256d writes = _mm256_mul_pd(o_rram, share);
    const __m256d rram_cycles = _mm256_div_pd(
        _mm256_add_pd(reads, _mm256_mul_pd(writes, v_occ)), v_rram_bw);

    // Seed order: inputs + weights + outputs (buffer_cycles), then * share.
    __m256d acc_i = zero;
    __m256d acc_w = zero;
    __m256d acc_o = zero;
    if (i_l) acc_i = guarded_level_max(acc_i, i_local, v_i_bw_l);
    if (i_g) acc_i = guarded_level_max(acc_i, i_global, v_i_bw_g);
    if (w_l) acc_w = guarded_level_max(acc_w, w_local, v_w_bw_l);
    if (w_g) acc_w = guarded_level_max(acc_w, w_global, v_w_bw_g);
    if (o_l) acc_o = guarded_level_max(acc_o, o_local, v_o_bw_l);
    if (o_g) acc_o = guarded_level_max(acc_o, o_global, v_o_bw_g);
    const __m256d buf_cycles = _mm256_mul_pd(
        _mm256_add_pd(_mm256_add_pd(acc_i, acc_w), acc_o), share);

    // std::max({a, b, c}) keeps the first of equals: acc<next selection.
    __m256d lat = out_compute;
    lat = vmax_std(lat, rram_cycles);
    lat = vmax_std(lat, buf_cycles);

    // Seed order: weights + inputs + outputs (buffer_energy).
    const __m256d ew =
        operand_energy(_mm256_load_pd(b.w_reg.data() + i), w_local, w_global,
                       v_w_e_reg, v_w_e_loc, v_w_e_glo);
    const __m256d ei =
        operand_energy(_mm256_load_pd(b.i_reg.data() + i), i_local, i_global,
                       v_i_e_reg, v_i_e_loc, v_i_e_glo);
    const __m256d eo =
        operand_energy(_mm256_load_pd(b.o_reg.data() + i), o_local, o_global,
                       v_o_e_reg, v_o_e_loc, v_o_e_glo);
    const __m256d buf_energy = _mm256_add_pd(_mm256_add_pd(ew, ei), eo);

    const __m256d rram_energy = _mm256_mul_pd(
        v_ascale,
        _mm256_add_pd(
            _mm256_mul_pd(_mm256_add_pd(w_rram, i_rram), v_read_pj),
            _mm256_mul_pd(o_rram, v_write_pj)));

    const __m256d nm = _mm256_load_pd(b.nmax_d.data() + i);
    const __m256d mem_idle = _mm256_mul_pd(
        v_mem_idle, vmax_std(zero, _mm256_sub_pd(lat, rram_cycles)));
    const __m256d cs_term = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(v_n, nm), lat),
        _mm256_mul_pd(nm, vmax_std(zero, _mm256_sub_pd(lat, out_compute))));
    const __m256d idle =
        _mm256_add_pd(mem_idle, _mm256_mul_pd(v_cs_idle, cs_term));

    const __m256d energy = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(v_mac, buf_energy), rram_energy), idle);
    _mm256_store_pd(b.edp.data() + i, _mm256_mul_pd(lat, energy));
  }
  // Clear the dirty upper YMM halves before returning to SSE-encoded code.
  // GCC does not insert vzeroupper around this target("avx2") clone when it
  // ends in a call, and the dirty-upper false dependency would slow every
  // scalar double op in the rest of the process until the next transition.
  _mm256_zeroupper();
}
#endif  // ULD3D_BATCH_X86

}  // namespace

bool batch_eval_enabled() {
  return batch_flag().load(std::memory_order_relaxed);
}

void set_batch_eval_enabled(bool enabled) {
  batch_flag().store(enabled, std::memory_order_relaxed);
}

LayerCost price_candidate_scalar(const nn::ConvSpec& conv,
                                 const TemporalMapping& m,
                                 const Architecture& arch,
                                 const SystemCosts& sys, std::int64_t n_cs) {
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

void CandidateBatch::resize(std::size_t n) {
  compute_cycles.resize(n);
  k_outer.resize(n);
  w_reg.resize(n);
  w_local.resize(n);
  w_global.resize(n);
  w_rram_read.resize(n);
  i_reg.resize(n);
  i_local.resize(n);
  i_global.resize(n);
  i_rram_read.resize(n);
  o_reg.resize(n);
  o_local.resize(n);
  o_global.resize(n);
  o_rram_write.resize(n);
  k_par_d.resize(n);
  oy_par_d.resize(n);
  share.resize(n);
  nmax_d.resize(n);
  cs_used.resize(n);
  out_compute_cycles.resize(n);
  rram_cycles.resize(n);
  buffer_cycles.resize(n);
  latency_cycles.resize(n);
  buffer_energy.resize(n);
  rram_energy.resize(n);
  idle_energy.resize(n);
  energy.resize(n);
  edp.resize(n);
}

LayerCost evaluate_candidates(const nn::ConvSpec& conv,
                              const std::vector<TemporalMapping>& candidates,
                              const Architecture& arch,
                              const SystemCosts& sys, std::int64_t n_cs,
                              CandidateBatch& b) {
  // "Nothing beat +inf" (no candidates, or every EDP overflowed) is the
  // zero cost under the layer's name, as a MapCache hit returns it.
  LayerCost cost;
  cost.layer = conv.name;
  const std::size_t n = candidates.size();
  if (n == 0) return cost;
  b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TemporalMapping& m = candidates[i];
    b.compute_cycles[i] = m.compute_cycles;
    b.k_outer[i] = m.k_outer;
    b.w_reg[i] = m.weights.reg_bits;
    b.w_local[i] = m.weights.local_bits;
    b.w_global[i] = m.weights.global_bits;
    b.w_rram_read[i] = m.weights.rram_read_bits;
    b.i_reg[i] = m.inputs.reg_bits;
    b.i_local[i] = m.inputs.local_bits;
    b.i_global[i] = m.inputs.global_bits;
    b.i_rram_read[i] = m.inputs.rram_read_bits;
    b.o_reg[i] = m.outputs.reg_bits;
    b.o_local[i] = m.outputs.local_bits;
    b.o_global[i] = m.outputs.global_bits;
    b.o_rram_write[i] = m.outputs.rram_write_bits;
  }
  const BatchConsts consts = make_consts(conv, arch, sys, n_cs);
  split_pass(consts, b, n);
  bool fused = false;
#if ULD3D_BATCH_X86
  if (simd::avx2_active()) {
    price_batch_avx2(consts, b, n);
    price_range(consts, b, n - n % 4, n);  // scalar tail, same trees
    fused = true;
  } else {
    price_range(consts, b, 0, n);
  }
#else
  price_range(consts, b, 0, n);
#endif
  const std::size_t win = simd::argmin_strict(b.edp.data(), n);
  if (win == n) return cost;
  // The fused kernel stores only edp; re-derive the winner's term arrays
  // with the scalar trees (bit-identical by the §16 contract) before
  // materializing the LayerCost below.
  if (fused) price_range(consts, b, win, win + 1);

  cost.mapping_order = candidates[win].order;
  cost.utilization = candidates[win].utilization;
  cost.cs_used = b.cs_used[win];
  cost.compute_cycles = b.out_compute_cycles[win];
  cost.rram_cycles = b.rram_cycles[win];
  cost.latency_cycles = b.latency_cycles[win];
  cost.mac_energy_pj = consts.mac_energy;
  cost.buffer_energy_pj = b.buffer_energy[win];
  cost.rram_energy_pj = b.rram_energy[win];
  cost.idle_energy_pj = b.idle_energy[win];
  cost.energy_pj = b.energy[win];
  return cost;
}

}  // namespace uld3d::mapper
