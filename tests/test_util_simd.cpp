// Unit tests for the util/simd reduction kernel: the AVX2 and scalar paths
// must agree element-for-element with a naive serial reference, including
// the argmin tie-break ("strict <, first of equals wins") and NaN/inf
// handling that the mapper's determinism contract depends on.
#include "uld3d/util/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "uld3d/util/batch.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::simd {
namespace {

class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { set_force_scalar(false); }
  void TearDown() override { set_force_scalar(false); }
};

/// Serial reference for argmin_strict: first index whose value is strictly
/// below everything before it; n when no element beats +inf (all NaN/inf).
std::size_t argmin_ref(const double* v, std::size_t n) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t win = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < best) {
      best = v[i];
      win = i;
    }
  }
  return win;
}

TEST_F(SimdTest, ArgminRandomizedMatchesSerialReference) {
  Rng rng(1);
  util::AlignedVector<double> v;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.below(97);
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse quantization manufactures ties so the first-wins rule is
      // actually exercised, not just the strict minimum.
      v[i] = static_cast<double>(rng.below(16)) * 0.25;
    }
    const std::size_t ref = argmin_ref(v.data(), n);
    EXPECT_EQ(argmin_strict(v.data(), n), ref) << "n=" << n;
    set_force_scalar(true);
    EXPECT_EQ(argmin_strict(v.data(), n), ref) << "n=" << n << " (scalar)";
    set_force_scalar(false);
  }
}

TEST_F(SimdTest, ArgminEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  EXPECT_EQ(argmin_strict(nullptr, 0), 0u);

  // All-inf and all-NaN: nothing beats the +inf seed, so the "no winner"
  // sentinel n comes back (the mapper maps it to a default LayerCost).
  util::AlignedVector<double> v;
  v.resize(16);
  for (std::size_t i = 0; i < 16; ++i) v[i] = inf;
  EXPECT_EQ(argmin_strict(v.data(), 16), 16u);
  for (std::size_t i = 0; i < 16; ++i) v[i] = nan;
  EXPECT_EQ(argmin_strict(v.data(), 16), 16u);

  // NaNs interleaved with finite values are skipped, not propagated.
  for (std::size_t i = 0; i < 16; ++i) v[i] = (i % 2 == 0) ? nan : 100.0 - i;
  EXPECT_EQ(argmin_strict(v.data(), 16), 15u);

  // -0.0 vs 0.0: not strictly ordered, so the first occurrence wins.
  for (std::size_t i = 0; i < 16; ++i) v[i] = (i % 2 == 0) ? 0.0 : -0.0;
  EXPECT_EQ(argmin_strict(v.data(), 16), 0u);

  // -inf is a legitimate minimum.
  for (std::size_t i = 0; i < 16; ++i) v[i] = 1.0;
  v[9] = -inf;
  EXPECT_EQ(argmin_strict(v.data(), 16), 9u);

  // Tie at the strict minimum across lane boundaries: first one wins.
  for (std::size_t i = 0; i < 16; ++i) v[i] = 5.0;
  v[3] = -7.0;
  v[11] = -7.0;
  EXPECT_EQ(argmin_strict(v.data(), 16), 3u);
  set_force_scalar(true);
  EXPECT_EQ(argmin_strict(v.data(), 16), 3u);
}

TEST_F(SimdTest, DispatchReportingIsConsistent) {
  // isa_name and avx2_active must agree, and force_scalar must flip both.
  // "scalar-forced" means the CPU could have run AVX2 but something (env or
  // override) suppressed it; plain "scalar" means the CPU cannot.
  const bool avx2 = avx2_active();
  if (avx2) {
    EXPECT_STREQ(isa_name(), "avx2");
  } else {
    EXPECT_STREQ(isa_name(), cpu_has_avx2() ? "scalar-forced" : "scalar");
  }
  set_force_scalar(true);
  EXPECT_FALSE(avx2_active());
  EXPECT_STREQ(isa_name(), cpu_has_avx2() ? "scalar-forced" : "scalar");
  set_force_scalar(false);
  EXPECT_EQ(avx2_active(), avx2);
}

TEST_F(SimdTest, AlignedVectorContract) {
  util::AlignedVector<double> v;
  EXPECT_EQ(v.size(), 0u);
  v.resize(7);
  EXPECT_EQ(v.size(), 7u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                util::kBatchAlignment,
            0u);
  double* p = v.data();
  v.resize(3);  // shrink never reallocates
  EXPECT_EQ(v.data(), p);
  v.resize(7);  // regrow within capacity never reallocates
  EXPECT_EQ(v.data(), p);
  v.resize(4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                util::kBatchAlignment,
            0u);
  util::AlignedVector<double> w = std::move(v);
  EXPECT_EQ(w.size(), 4096u);
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): documented
}

}  // namespace
}  // namespace uld3d::simd
