#include "uld3d/util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <limits>

#include "uld3d/util/metrics.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define ULD3D_SIMD_X86 1
#include <immintrin.h>
#define ULD3D_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ULD3D_SIMD_X86 0
#endif

namespace uld3d::simd {

namespace {

struct Dispatch {
  bool cpu_avx2 = false;
  bool env_disabled = false;
};

/// CPUID + environment, read exactly once per process.
const Dispatch& dispatch() {
  static const Dispatch d = [] {
    Dispatch out;
#if ULD3D_SIMD_X86
    out.cpu_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    const char* env = std::getenv("ULD3D_NO_SIMD");
    out.env_disabled = env != nullptr && env[0] != '\0';
    return out;
  }();
  return d;
}

std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> force{false};
  return force;
}

}  // namespace

bool cpu_has_avx2() { return dispatch().cpu_avx2; }

bool disabled_by_env() { return dispatch().env_disabled; }

void set_force_scalar(bool force) {
  force_scalar_flag().store(force, std::memory_order_relaxed);
}

Isa active_isa() {
  const Dispatch& d = dispatch();
  if (d.env_disabled || !d.cpu_avx2 ||
      force_scalar_flag().load(std::memory_order_relaxed)) {
    return Isa::kScalar;
  }
  return Isa::kAvx2;
}

bool avx2_active() { return active_isa() == Isa::kAvx2; }

const char* isa_name() {
  if (active_isa() == Isa::kAvx2) return "avx2";
  // Distinguish "this machine has no AVX2" from "AVX2 was suppressed", so
  // provenance records why a run took the scalar path.
  if (cpu_has_avx2()) return "scalar-forced";
  return "scalar";
}

void record_dispatch_metric() {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().gauge("simd.dispatch").set(
      active_isa() == Isa::kAvx2 ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// argmin_strict
// ---------------------------------------------------------------------------

namespace {

std::size_t argmin_strict_scalar(const double* x, std::size_t n) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t win = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < best) {
      best = x[i];
      win = i;
    }
  }
  return win;
}

#if ULD3D_SIMD_X86
ULD3D_TARGET_AVX2 std::size_t argmin_strict_avx2(const double* x,
                                                 std::size_t n) {
  // Running minimum via the same `<` predicate as the serial recurrence:
  // lanes where v < best replace best (NaNs compare false and are skipped).
  __m256d best4 = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d lt = _mm256_cmp_pd(v, best4, _CMP_LT_OQ);
    best4 = _mm256_blendv_pd(best4, v, lt);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, best4);
  // Explicitly clear the upper YMM halves once the 256-bit work is done:
  // leaving them dirty imposes a false dependency on every SSE-encoded
  // double op executed afterwards.  (GCC inserts vzeroupper for plain
  // returns from target("avx2") clones but not reliably for every exit
  // shape, so the kernels do it themselves.)
  _mm256_zeroupper();
  double best = std::numeric_limits<double>::infinity();
  for (const double lane : lanes) {
    if (lane < best) best = lane;
  }
  for (; i < n; ++i) {
    if (x[i] < best) best = x[i];
  }
  if (best == std::numeric_limits<double>::infinity()) return n;
  // Deterministic serial tie-break: the serial recurrence ends on the FIRST
  // index attaining the minimum (later ties fail the strict `<`), so the
  // first `==` match reproduces it exactly (±0.0 ties compare equal).
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] == best) return j;
  }
  return n;  // unreachable for well-formed input
}
#endif

}  // namespace

std::size_t argmin_strict(const double* x, std::size_t n) {
#if ULD3D_SIMD_X86
  if (n >= 8 && avx2_active()) return argmin_strict_avx2(x, n);
#endif
  return argmin_strict_scalar(x, n);
}

}  // namespace uld3d::simd
