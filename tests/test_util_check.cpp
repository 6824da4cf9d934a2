#include "uld3d/util/check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/layer.hpp"
#include "uld3d/util/resource.hpp"

namespace uld3d {
namespace {

/// Bytes the calling thread requests from operator new while `fn` runs.
template <typename Fn>
std::uint64_t bytes_allocated_by(Fn&& fn) {
  const bool saved = alloc_stats_enabled();
  set_alloc_stats_enabled(true);
  const std::uint64_t before = thread_alloc_bytes();
  fn();
  const std::uint64_t bytes = thread_alloc_bytes() - before;
  set_alloc_stats_enabled(saved);
  return bytes;
}

TEST(Check, ExpectsPassesOnTrue) {
  EXPECT_NO_THROW(expects(true, "never fires"));
}

TEST(Check, ExpectsThrowsPreconditionError) {
  EXPECT_THROW(expects(false, "boom"), PreconditionError);
}

TEST(Check, EnsuresThrowsInvariantError) {
  EXPECT_THROW(ensures(false, "boom"), InvariantError);
}

TEST(Check, MessageContainsLocationAndText) {
  try {
    expects(false, "my message");
    FAIL() << "expects did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my message"), std::string::npos);
    EXPECT_NE(what.find("test_util_check.cpp"), std::string::npos);
  }
}

TEST(Check, PassingChecksDoNotAllocate) {
  // Checks sit in the placer's candidate scans and on every mapper call, so
  // a passing one must cost a branch, not a heap-built message.  Both
  // messages are longer than the small-string buffer (15 characters).
  const std::string owned = "an owned message that needs the heap";
  EXPECT_EQ(bytes_allocated_by([] {
              expects(true, "a literal longer than fifteen characters");
            }),
            0u);
  EXPECT_EQ(bytes_allocated_by([] {
              ensures(true, "a literal longer than fifteen characters");
            }),
            0u);
  EXPECT_EQ(bytes_allocated_by([&] { expects(true, owned); }), 0u);
  EXPECT_EQ(bytes_allocated_by([&] { ensures(true, owned); }), 0u);

  // Hot call sites whose messages name their subject build them lazily.
  const nn::Layer layer(nn::ConvSpec{"conv_with_a_long_name", 64, 3, 112, 112,
                                     7, 7, 2});
  const mapper::Architecture arch = mapper::make_table2_architecture(1);
  std::int64_t k = 0;
  EXPECT_EQ(bytes_allocated_by([&] { k = layer.conv().k; }), 0u);
  EXPECT_EQ(k, 64);
  EXPECT_EQ(bytes_allocated_by([&] { arch.validate(); }), 0u);
}

TEST(Check, HierarchyRootsAtError) {
  EXPECT_THROW(expects(false, "x"), Error);
  EXPECT_THROW(ensures(false, "x"), Error);
  EXPECT_THROW(expects(false, "x"), std::runtime_error);
}

}  // namespace
}  // namespace uld3d
