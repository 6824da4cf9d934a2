// Runtime SIMD dispatch for the data-oriented batch kernels.
//
// The batch kernels (mapper/batch_eval, sim's energy finishing) each ship
// two implementations: a portable scalar loop and an AVX2 one.  Which one
// runs is decided ONCE per process from CPUID plus the `ULD3D_NO_SIMD`
// escape hatch (set non-empty to force the scalar path, mirroring
// `ULD3D_NO_MAPCACHE`), and can be overridden at runtime with
// `set_force_scalar` for differential tests.
//
// Determinism contract (DESIGN.md §16): every AVX2 kernel mirrors the
// scalar expression tree operation-for-operation — IEEE-exact per-lane
// mul/add/div plus *selection*-based min/max (blend on a compare, matching
// std::min/std::max operand order, never the asymmetric NaN/±0 semantics
// of vminpd/vmaxpd) — and reductions are selections (EDP argmin), which
// are order-insensitive at the bit level.  No floating-point sum is
// reassociated, so scalar and AVX2 runs are byte-identical, not merely
// close.
#pragma once

#include <cstddef>
#include <cstdint>

namespace uld3d::simd {

/// Instruction set the batch kernels dispatch to.
enum class Isa {
  kScalar,  ///< portable fallback (also: ULD3D_NO_SIMD, non-x86, old CPUs)
  kAvx2,    ///< 4x f64 / 8x i32 AVX2 kernels
};

/// The ISA chosen at startup: AVX2 when the CPU supports it and
/// `ULD3D_NO_SIMD` is unset/empty, scalar otherwise.  First call latches
/// the environment; `set_force_scalar` overrides afterwards.
[[nodiscard]] Isa active_isa();

/// True when the AVX2 kernels are active (the common dispatch test).
[[nodiscard]] bool avx2_active();

/// Human-readable dispatch record for provenance/metrics: "avx2",
/// "scalar", or "scalar-forced" when ULD3D_NO_SIMD / set_force_scalar
/// suppressed an available AVX2 unit.
[[nodiscard]] const char* isa_name();

/// Force the scalar fallbacks at runtime (tests, A/B verification).  Does
/// not touch the latched CPUID result: clearing the override restores the
/// startup decision.
void set_force_scalar(bool force);

/// True when `ULD3D_NO_SIMD` was set (non-empty) at first dispatch.
[[nodiscard]] bool disabled_by_env();

/// True when the CPU itself supports AVX2 (independent of overrides).
[[nodiscard]] bool cpu_has_avx2();

/// Mirror the startup dispatch into the MetricsRegistry (when metrics are
/// enabled): gauge "simd.dispatch" is 1.0 for AVX2, 0.0 for scalar.
void record_dispatch_metric();

// ---------------------------------------------------------------------------
// Shared reduction kernel.  It dispatches on active_isa() internally and
// returns bit-identical results on every path.
// ---------------------------------------------------------------------------

/// Index of the first element strictly smaller than every earlier element's
/// running minimum — i.e. the index the serial recurrence
/// `if (x[i] < best) { best = x[i]; win = i; }` (best seeded with +inf)
/// ends on.  NaNs never win (NaN < best is false).  Returns `n` when no
/// element beats +inf (empty input, all-NaN, or all +inf).
///
/// The AVX2 path computes the running minimum 4 lanes at a time with
/// compare+blend (same `<` predicate) and then re-scans serially for the
/// first index attaining it — the documented "vectorized reduction with a
/// deterministic serial argmin tie-break".
[[nodiscard]] std::size_t argmin_strict(const double* x, std::size_t n);

}  // namespace uld3d::simd
