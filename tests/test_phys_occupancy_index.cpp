// Differential and determinism suite for the placement fast paths.
//
// The occupancy index, run-skipping scans, and spatial buckets are pure
// accelerators: their contract is bit-identical behaviour to the naive
// byte-grid / linear-scan implementations.  These tests drive both sides
// with thousands of randomized operations and assert exact agreement, then
// pin the end-to-end contract by comparing a full run_comparison with the
// fast paths on vs. off, bit for bit.
#include "uld3d/phys/occupancy_index.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "uld3d/phys/floorplan.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/phys/placer.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/simd.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::phys {
namespace {

/// Restore the process-wide fast-path flag on scope exit, so a failing
/// assertion cannot leak a disabled index into later tests.
class IndexFlagGuard {
 public:
  IndexFlagGuard() : saved_(placer_index_enabled()) {}
  ~IndexFlagGuard() { set_placer_index_enabled(saved_); }

 private:
  bool saved_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rect(const Rect& a, const Rect& b) {
  return same_bits(a.x0, b.x0) && same_bits(a.y0, b.y0) &&
         same_bits(a.x1, b.x1) && same_bits(a.y1, b.y1);
}

TEST(OccupancyIndex, MatchesByteGridOnRandomMarkQuerySequences) {
  Rng rng(0xace);
  const std::int64_t nx = 57;  // deliberately non-square, non-power-of-two
  const std::int64_t ny = 43;
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(nx * ny), 0);
  OccupancyIndex index;

  const auto naive_count = [&](std::int64_t bx0, std::int64_t by0,
                               std::int64_t bx1, std::int64_t by1) {
    std::int64_t n = 0;
    for (std::int64_t y = std::max<std::int64_t>(by0, 0);
         y < std::min(by1, ny); ++y) {
      for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
           x < std::min(bx1, nx); ++x) {
        if (grid[static_cast<std::size_t>(y * nx + x)] != 0) ++n;
      }
    }
    return n;
  };
  const auto naive_rightmost = [&](std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) {
    std::int64_t rightmost = -1;
    for (std::int64_t y = std::max<std::int64_t>(by0, 0);
         y < std::min(by1, ny); ++y) {
      for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
           x < std::min(bx1, nx); ++x) {
        if (grid[static_cast<std::size_t>(y * nx + x)] != 0 && x > rightmost) {
          rightmost = x;
        }
      }
    }
    return rightmost;
  };
  // Windows hang off every edge now and then to exercise the clamping.
  const auto random_window = [&](std::int64_t& bx0, std::int64_t& by0,
                                 std::int64_t& bx1, std::int64_t& by1) {
    bx0 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(nx + 8))) - 4;
    by0 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ny + 8))) - 4;
    bx1 = bx0 + static_cast<std::int64_t>(rng.below(20));
    by1 = by0 + static_cast<std::int64_t>(rng.below(20));
  };

  std::int64_t marks = 0;
  for (int op = 0; op < 4000; ++op) {
    std::int64_t bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;
    random_window(bx0, by0, bx1, by1);
    if (rng.below(5) == 0) {  // ~20% marks, 80% queries (the hot side)
      for (std::int64_t y = std::max<std::int64_t>(by0, 0);
           y < std::min(by1, ny); ++y) {
        for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
             x < std::min(bx1, nx); ++x) {
          grid[static_cast<std::size_t>(y * nx + x)] = 1;
        }
      }
      index.invalidate();
      ++marks;
      continue;
    }
    index.refresh(grid.data(), nx, ny);
    ASSERT_EQ(index.count(bx0, by0, bx1, by1), naive_count(bx0, by0, bx1, by1))
        << "op " << op;
    ASSERT_EQ(index.rect_clear(bx0, by0, bx1, by1),
              naive_count(bx0, by0, bx1, by1) == 0)
        << "op " << op;
    ASSERT_EQ(index.rightmost_occupied(bx0, by0, bx1, by1),
              naive_rightmost(bx0, by0, bx1, by1))
        << "op " << op;
    ASSERT_EQ(index.occupied_bins(), naive_count(0, 0, nx, ny)) << "op " << op;
  }
  EXPECT_GT(marks, 100);  // the sequence actually mutated the grid
}

TEST(OccupancyIndex, SatBuildIdenticalWithSimdKernelsForcedScalar) {
  // The SAT/prefix-max build runs on util/simd prefix kernels; forcing the
  // scalar kernels must reproduce every query answer exactly (integer ops,
  // so SIMD==scalar is bitwise, not approximate).
  Rng rng(0xbee);
  const std::int64_t nx = 61;
  const std::int64_t ny = 37;
  std::vector<std::uint8_t> grid(static_cast<std::size_t>(nx * ny), 0);
  for (auto& cell : grid) cell = rng.below(3) == 0 ? 1 : 0;

  OccupancyIndex simd_index;
  simd_index.refresh(grid.data(), nx, ny);

  simd::set_force_scalar(true);
  OccupancyIndex scalar_index;
  scalar_index.refresh(grid.data(), nx, ny);
  simd::set_force_scalar(false);

  EXPECT_EQ(simd_index.occupied_bins(), scalar_index.occupied_bins());
  for (int q = 0; q < 500; ++q) {
    const std::int64_t bx0 =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(nx + 8))) - 4;
    const std::int64_t by0 =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ny + 8))) - 4;
    const std::int64_t bx1 = bx0 + static_cast<std::int64_t>(rng.below(24));
    const std::int64_t by1 = by0 + static_cast<std::int64_t>(rng.below(24));
    ASSERT_EQ(simd_index.count(bx0, by0, bx1, by1),
              scalar_index.count(bx0, by0, bx1, by1))
        << "q " << q;
    ASSERT_EQ(simd_index.rightmost_occupied(bx0, by0, bx1, by1),
              scalar_index.rightmost_occupied(bx0, by0, bx1, by1))
        << "q " << q;
  }
}

TEST(OccupancyIndex, StaleQueryIsAnInvariantViolation) {
  OccupancyIndex index;
  EXPECT_THROW(index.count(0, 0, 1, 1), InvariantError);
  const std::vector<std::uint8_t> grid(4, 0);
  index.refresh(grid.data(), 2, 2);
  EXPECT_EQ(index.count(0, 0, 2, 2), 0);
  index.invalidate();
  EXPECT_THROW(index.occupied_bins(), InvariantError);
}

TEST(OccupancyIndex, RefreshIsIdempotentWhenFresh) {
  std::vector<std::uint8_t> grid(9, 0);
  grid[4] = 1;
  OccupancyIndex index;
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 1);
  // A fresh index ignores grid edits until invalidated (rebuild-on-mark is
  // the caller's contract).
  grid[0] = 1;
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 1);
  index.invalidate();
  index.refresh(grid.data(), 3, 3);
  EXPECT_EQ(index.occupied_bins(), 2);
}

TEST(RectBuckets, MatchesLinearScanOnRandomInsertRemoveQuery) {
  Rng rng(0xbee);
  const double side = 5000.0;
  RectBuckets buckets(side, side, 32);
  std::vector<std::optional<Rect>> naive(64);

  const auto random_rect = [&] {
    const double x = rng.uniform() * side * 0.9;
    const double y = rng.uniform() * side * 0.9;
    const double w = 10.0 + rng.uniform() * side * 0.2;
    const double h = 10.0 + rng.uniform() * side * 0.2;
    return Rect::at(x, y, w, h);
  };

  for (int op = 0; op < 5000; ++op) {
    const std::size_t id = static_cast<std::size_t>(rng.below(naive.size()));
    switch (rng.below(4)) {
      case 0:  // insert (replacing any previous rect under this id)
        if (naive[id].has_value()) buckets.remove(id, *naive[id]);
        naive[id] = random_rect();
        buckets.insert(id, *naive[id]);
        break;
      case 1:  // remove
        if (naive[id].has_value()) {
          buckets.remove(id, *naive[id]);
          naive[id].reset();
        }
        break;
      default: {  // query, sometimes with self-exclusion
        const Rect q = random_rect();
        const std::size_t self =
            rng.below(2) == 0 ? static_cast<std::size_t>(rng.below(naive.size()))
                              : naive.size();
        bool expect_hit = false;
        for (std::size_t i = 0; i < naive.size(); ++i) {
          if (i != self && naive[i].has_value() && naive[i]->overlaps(q)) {
            expect_hit = true;
            break;
          }
        }
        const auto hit = buckets.overlaps_any(q, self);
        ASSERT_EQ(hit.has_value(), expect_hit) << "op " << op;
        if (hit.has_value()) {
          EXPECT_TRUE(hit->overlaps(q)) << "op " << op;
        }
        break;
      }
    }
  }
}

TEST(PlacerIndexFlag, RuntimeToggleRoundTrips) {
  const IndexFlagGuard guard;
  set_placer_index_enabled(false);
  EXPECT_FALSE(placer_index_enabled());
  set_placer_index_enabled(true);
  EXPECT_TRUE(placer_index_enabled());
}

TEST(FloorplanDifferential, QueriesAgreeWithIndexOnAndOff) {
  const IndexFlagGuard guard;
  Rng rng(0xf100);
  for (int trial = 0; trial < 8; ++trial) {
    Floorplan fp(4000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    const auto random_rect = [&] {
      const double x = rng.uniform() * 3900.0;
      const double y = rng.uniform() * 2900.0;
      const double w = 20.0 + rng.uniform() * 800.0;
      const double h = 20.0 + rng.uniform() * 800.0;
      return Rect::at(x, y, w, h);
    };
    for (int op = 0; op < 300; ++op) {
      const Rect r = random_rect();
      const auto tier = tech::TierKind::kSiCmosFeol;
      switch (rng.below(3)) {
        case 0: {
          // Both implementations must agree BEFORE the mutation decides.
          set_placer_index_enabled(true);
          const bool fast_free = fp.region_free(tier, r);
          set_placer_index_enabled(false);
          const bool naive_free = fp.region_free(tier, r);
          ASSERT_EQ(fast_free, naive_free) << "trial " << trial << " op " << op;
          set_placer_index_enabled(true);
          fp.allocate_region(tier, r);
          break;
        }
        case 1: {
          const double w = 100.0 + rng.uniform() * 1000.0;
          const double h = 100.0 + rng.uniform() * 1000.0;
          set_placer_index_enabled(true);
          const auto fast_found = fp.find_free_region(tier, w, h);
          set_placer_index_enabled(false);
          const auto naive_found = fp.find_free_region(tier, w, h);
          ASSERT_EQ(fast_found.has_value(), naive_found.has_value())
              << "trial " << trial << " op " << op;
          if (fast_found.has_value()) {
            ASSERT_TRUE(same_rect(*fast_found, *naive_found))
                << "trial " << trial << " op " << op;
          }
          break;
        }
        default: {
          set_placer_index_enabled(true);
          const double fast_free = fp.free_area_um2(tier);
          const double fast_util = fp.utilization(tier);
          set_placer_index_enabled(false);
          ASSERT_TRUE(same_bits(fast_free, fp.free_area_um2(tier)))
              << "trial " << trial << " op " << op;
          ASSERT_TRUE(same_bits(fast_util, fp.utilization(tier)))
              << "trial " << trial << " op " << op;
          break;
        }
      }
      set_placer_index_enabled(true);
    }
  }
}

TEST(FloorplanDifferential, PlaceMacroAnywhereAgreesWithNaiveScan) {
  const IndexFlagGuard guard;
  Rng seq(0x9a);
  for (int trial = 0; trial < 6; ++trial) {
    Floorplan fast_fp(3000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    Floorplan naive_fp(3000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    for (int op = 0; op < 25; ++op) {
      const double area = 1.0e4 + seq.uniform() * 8.0e5;
      const bool m3d = seq.below(2) == 0;
      const std::string name = "m" + std::to_string(op);
      const Macro macro = m3d ? Macro::rram_array_m3d(name, area)
                              : Macro::rram_array_2d(name, area);
      set_placer_index_enabled(true);
      const auto fast_placed = fast_fp.place_macro_anywhere(macro);
      set_placer_index_enabled(false);
      const auto naive_placed = naive_fp.place_macro_anywhere(macro);
      ASSERT_EQ(fast_placed.has_value(), naive_placed.has_value())
          << "trial " << trial << " op " << op;
      if (fast_placed.has_value()) {
        ASSERT_TRUE(same_rect(*fast_placed, *naive_placed))
            << "trial " << trial << " op " << op;
      }
    }
    set_placer_index_enabled(true);
  }
}

FlowInput case_study_input() {
  FlowInput input;
  input.rram_capacity_bits = units::mb_to_bits(64.0);
  input.cs_sram_area_um2 = 1.97e6;
  input.cs_logic_area_um2 = 4.6e6;
  input.cs_logic_gates = 295600;
  return input;
}

void expect_reports_identical(const DesignReport& a, const DesignReport& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.unplaced, b.unplaced);
  EXPECT_TRUE(same_bits(a.die_width_um, b.die_width_um));
  EXPECT_TRUE(same_bits(a.footprint_mm2, b.footprint_mm2));
  EXPECT_TRUE(same_bits(a.si_utilization, b.si_utilization));
  EXPECT_EQ(a.cs_placed, b.cs_placed);
  EXPECT_TRUE(same_bits(a.placement_hpwl_um, b.placement_hpwl_um));
  EXPECT_TRUE(same_bits(a.total_wirelength_um, b.total_wirelength_um));
  EXPECT_EQ(a.buffers, b.buffers);
  EXPECT_TRUE(same_bits(a.congestion_peak, b.congestion_peak));
  EXPECT_TRUE(same_bits(a.congestion_overflow, b.congestion_overflow));
  EXPECT_TRUE(same_bits(a.total_power_mw, b.total_power_mw));
  EXPECT_TRUE(same_bits(a.peak_density_mw_per_mm2, b.peak_density_mw_per_mm2));
  EXPECT_TRUE(
      same_bits(a.upper_tier_power_fraction, b.upper_tier_power_fraction));
  ASSERT_EQ(a.placed_macros.size(), b.placed_macros.size());
  for (std::size_t i = 0; i < a.placed_macros.size(); ++i) {
    EXPECT_TRUE(same_rect(a.placed_macros[i].rect, b.placed_macros[i].rect))
        << "macro " << i;
  }
  ASSERT_EQ(a.placed_blocks.size(), b.placed_blocks.size());
  for (std::size_t i = 0; i < a.placed_blocks.size(); ++i) {
    EXPECT_EQ(a.placed_blocks[i].macro.name, b.placed_blocks[i].macro.name);
    EXPECT_TRUE(same_rect(a.placed_blocks[i].rect, b.placed_blocks[i].rect))
        << "block " << i;
  }
  ASSERT_EQ(a.bus_routes.size(), b.bus_routes.size());
  for (std::size_t i = 0; i < a.bus_routes.size(); ++i) {
    EXPECT_TRUE(same_bits(a.bus_routes[i].from.x, b.bus_routes[i].from.x));
    EXPECT_TRUE(same_bits(a.bus_routes[i].from.y, b.bus_routes[i].from.y));
    EXPECT_TRUE(same_bits(a.bus_routes[i].to.x, b.bus_routes[i].to.x));
    EXPECT_TRUE(same_bits(a.bus_routes[i].to.y, b.bus_routes[i].to.y));
    EXPECT_TRUE(same_bits(a.bus_routes[i].tracks, b.bus_routes[i].tracks));
  }
}

TEST(PlacementDeterminism, RunComparisonBitIdenticalWithIndexOff) {
  const IndexFlagGuard guard;
  const M3dFlow flow;
  set_placer_index_enabled(true);
  const FlowComparison fast = flow.run_comparison(case_study_input(), 8);
  set_placer_index_enabled(false);
  const FlowComparison naive = flow.run_comparison(case_study_input(), 8);
  set_placer_index_enabled(true);
  expect_reports_identical(fast.design_2d, naive.design_2d);
  expect_reports_identical(fast.design_3d, naive.design_3d);
  EXPECT_EQ(fast.iso_footprint, naive.iso_footprint);
  EXPECT_TRUE(
      same_bits(fast.wirelength_per_cs_ratio, naive.wirelength_per_cs_ratio));
  EXPECT_TRUE(same_bits(fast.peak_density_ratio, naive.peak_density_ratio));
}

TEST(PlacementDeterminism, AutoSizedM3dDesignBitIdenticalWithIndexOff) {
  // Eight CSs on an auto-sized die: the constructive pass fragments the
  // free space and stops at its first unplaceable block, and the shelf
  // fallback places every block.  The fast side (early exit, table-driven
  // scans) must match the naive side, which walks every candidate.
  const IndexFlagGuard guard;
  const M3dFlow flow;
  set_placer_index_enabled(true);
  const DesignReport fast =
      flow.run_design(case_study_input(), /*m3d=*/true, 8);
  set_placer_index_enabled(false);
  const DesignReport naive =
      flow.run_design(case_study_input(), /*m3d=*/true, 8);
  set_placer_index_enabled(true);
  EXPECT_TRUE(fast.feasible);
  expect_reports_identical(fast, naive);
}

TEST(PlacerMetrics, CountersTrackScanAndSkipActivity) {
  const IndexFlagGuard guard;
  set_placer_index_enabled(true);
  MetricsRegistry::set_enabled(true);
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("phys.placer.candidates_scanned").reset();
  registry.counter("phys.placer.candidates_skipped").reset();
  registry.counter("phys.placer.legal_checks").reset();

  Floorplan fp(6000.0, 6000.0, tech::TierStack::make_m3d_130nm(), 100.0);
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("m", 16.0e6), 0.0, 0.0));
  SoftBlock block;
  block.name = "a";
  block.area_um2 = 9.0e6;
  block.tier = tech::TierKind::kSiCmosFeol;
  Rng rng(1);
  const Placer placer;
  const auto result = placer.place(fp, {block}, rng);
  MetricsRegistry::set_enabled(false);
  ASSERT_TRUE(result.success);
  EXPECT_GT(registry.counter("phys.placer.candidates_scanned").value(), 0u);
  EXPECT_GT(registry.counter("phys.placer.candidates_skipped").value(), 0u);
  EXPECT_GT(registry.counter("phys.placer.legal_checks").value(), 0u);
  // Legality is only ever checked on candidates that were not skipped.
  EXPECT_LE(registry.counter("phys.placer.legal_checks").value(),
            registry.counter("phys.placer.candidates_scanned").value());
}

}  // namespace
}  // namespace uld3d::phys
