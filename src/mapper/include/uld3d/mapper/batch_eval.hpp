// Structure-of-arrays candidate evaluation for the mapper hot path.
//
// The seed mapper priced every (candidate × layer × unrolling) one at a
// time through a scalar `price_candidate` that builds a full LayerCost —
// two std::string members included — per candidate, keeps one, and throws
// the rest away.  On the paper's design-space sweeps (Fig. 7, the
// spatial-search ablation) that per-candidate overhead, not arithmetic,
// bounds throughput.
//
// `evaluate_candidates` instead lays every cost term out as a contiguous
// array in a reusable `CandidateBatch` scratch: one pass per cost term
// (rram_cycles, buffer_cycles, latency, per-source energies, EDP), each
// pass vectorized with AVX2 when `simd::active_isa()` allows, then a
// vectorized EDP reduction with a deterministic serial argmin tie-break.
// Only the winner is materialized as a LayerCost.
//
// Determinism: every pass mirrors the scalar expression tree of
// `price_candidate_scalar` operation-for-operation (see util/simd.hpp for
// the per-lane exactness argument), and the argmin reproduces the serial
// strict-`<` recurrence, so batch-on, forced-scalar (`ULD3D_NO_SIMD=1` /
// `set_batch_eval_enabled(false)`), and the seed loop pick byte-identical
// best mappings.  test_mapper_batch_eval enforces this differentially.
#pragma once

#include <cstdint>
#include <vector>

#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/temporal_mapping.hpp"
#include "uld3d/util/batch.hpp"

namespace uld3d::mapper {

/// The seed per-candidate pricing (exact original arithmetic).  Exposed as
/// the reference implementation for the differential tests and the scalar
/// baseline of bench_perf_kernels' batch-vs-scalar throughput pin, and as
/// the fallback `price_conv` takes when batch evaluation is disabled.
[[nodiscard]] LayerCost price_candidate_scalar(const nn::ConvSpec& conv,
                                               const TemporalMapping& m,
                                               const Architecture& arch,
                                               const SystemCosts& sys,
                                               std::int64_t n_cs);

/// Batch evaluation on/off.  Reads `ULD3D_NO_SIMD` once at startup (set
/// non-empty to disable, mirroring ULD3D_NO_MAPCACHE); the setter is the
/// runtime override for tests and A/B baselines.  When off, price_conv
/// runs the seed scalar loop and counts
/// "mapper.batch.scalar_fallback_calls".
[[nodiscard]] bool batch_eval_enabled();
void set_batch_eval_enabled(bool enabled);

/// SoA scratch for one batch evaluation.  Reused across calls (the arrays
/// ratchet capacity and are fully overwritten), so steady-state evaluation
/// allocates nothing; price_conv keeps one per thread.
struct CandidateBatch {
  // Inputs, one slot per candidate (AoS -> SoA fill pass).
  util::AlignedVector<double> compute_cycles;
  util::AlignedVector<std::int64_t> k_outer;
  util::AlignedVector<double> w_reg, w_local, w_global, w_rram_read;
  util::AlignedVector<double> i_reg, i_local, i_global, i_rram_read;
  util::AlignedVector<double> o_reg, o_local, o_global, o_rram_write;
  // Parallel-partition split (data-dependent integer search; scalar pass).
  // k_par/oy_par/nmax are kept as doubles because the seed arithmetic
  // divides by their double casts — the passes must divide by the same
  // values, never multiply by a precomputed reciprocal.
  util::AlignedVector<double> k_par_d, oy_par_d, share, nmax_d;
  util::AlignedVector<std::int64_t> cs_used;
  // One contiguous array per cost term.
  util::AlignedVector<double> out_compute_cycles;
  util::AlignedVector<double> rram_cycles;
  util::AlignedVector<double> buffer_cycles;
  util::AlignedVector<double> latency_cycles;
  util::AlignedVector<double> buffer_energy;
  util::AlignedVector<double> rram_energy;
  util::AlignedVector<double> idle_energy;
  util::AlignedVector<double> energy;
  util::AlignedVector<double> edp;

  void resize(std::size_t n);
};

/// Price all `candidates` of `conv` on `arch` through the SoA passes and
/// return the cheapest-EDP candidate as a LayerCost, byte-identical to the
/// seed loop `for (m : candidates) best = min_edp(price_candidate_scalar)`.
/// Returns a zero LayerCost that carries only `conv.name` when no candidate
/// has an EDP strictly below +inf (all-NaN/inf batches, or none at all).
[[nodiscard]] LayerCost evaluate_candidates(
    const nn::ConvSpec& conv, const std::vector<TemporalMapping>& candidates,
    const Architecture& arch, const SystemCosts& sys, std::int64_t n_cs,
    CandidateBatch& scratch);

}  // namespace uld3d::mapper
