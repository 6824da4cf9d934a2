// Tests for the placement engine's acceleration structures.
//
// The occupancy index is the floorplan's only occupancy state, so it is
// checked against a byte grid kept by the test through long random
// sequences of marks and queries, on grids whose rows end on, before and
// after 64-bit word edges; the placer's snapshot of it, its rectangle
// queries and its folded row bands, is checked against the same byte grid.
// The spatial buckets are checked against a linear scan, and the
// floorplan's run-skipping scans against the naive oracles in
// tests/reference.
#include "uld3d/phys/occupancy_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "reference/naive_placement.hpp"
#include "uld3d/phys/floorplan.hpp"
#include "uld3d/phys/placer.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::phys {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rect(const Rect& a, const Rect& b) {
  return same_bits(a.x0, b.x0) && same_bits(a.y0, b.y0) &&
         same_bits(a.x1, b.x1) && same_bits(a.y1, b.y1);
}

/// The byte grid the index must agree with: one byte per bin, queried and
/// marked bin by bin.
class ByteGrid {
 public:
  ByteGrid(std::int64_t nx, std::int64_t ny)
      : nx_(nx), ny_(ny), bins_(static_cast<std::size_t>(nx * ny), 0) {}

  [[nodiscard]] std::int64_t count(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const {
    std::int64_t n = 0;
    each(bx0, by0, bx1, by1, [&](std::int64_t x, std::int64_t y) {
      if (bins_[index(x, y)] != 0) ++n;
    });
    return n;
  }

  [[nodiscard]] std::int64_t rightmost(std::int64_t bx0, std::int64_t by0,
                                       std::int64_t bx1,
                                       std::int64_t by1) const {
    std::int64_t rightmost = -1;
    each(bx0, by0, bx1, by1, [&](std::int64_t x, std::int64_t y) {
      if (bins_[index(x, y)] != 0) rightmost = std::max(rightmost, x);
    });
    return rightmost;
  }

  /// The least occupied column of the window, or -1.
  [[nodiscard]] std::int64_t leftmost(std::int64_t bx0, std::int64_t by0,
                                      std::int64_t bx1,
                                      std::int64_t by1) const {
    std::int64_t leftmost = -1;
    each(bx0, by0, bx1, by1, [&](std::int64_t x, std::int64_t y) {
      if (bins_[index(x, y)] != 0 && (leftmost < 0 || x < leftmost)) {
        leftmost = x;
      }
    });
    return leftmost;
  }

  /// The OR of rows [by0, by1) (clamped), one bit per column packed as
  /// OccupancySnapshot::band packs it: ceil(nx / 64) words.
  [[nodiscard]] std::vector<std::uint64_t> column_or(std::int64_t by0,
                                                     std::int64_t by1) const {
    std::vector<std::uint64_t> words(static_cast<std::size_t>((nx_ + 63) / 64),
                                     0);
    each(0, by0, nx_, by1, [&](std::int64_t x, std::int64_t y) {
      if (bins_[index(x, y)] != 0) {
        words[static_cast<std::size_t>(x / 64)] |= std::uint64_t{1} << (x % 64);
      }
    });
    return words;
  }

  void mark(std::int64_t bx0, std::int64_t by0, std::int64_t bx1,
            std::int64_t by1) {
    each(bx0, by0, bx1, by1,
         [&](std::int64_t x, std::int64_t y) { bins_[index(x, y)] = 1; });
  }

 private:
  template <typename F>
  void each(std::int64_t bx0, std::int64_t by0, std::int64_t bx1,
            std::int64_t by1, F&& f) const {
    for (std::int64_t y = std::max<std::int64_t>(by0, 0);
         y < std::min(by1, ny_); ++y) {
      for (std::int64_t x = std::max<std::int64_t>(bx0, 0);
           x < std::min(bx1, nx_); ++x) {
        f(x, y);
      }
    }
  }
  [[nodiscard]] std::size_t index(std::int64_t x, std::int64_t y) const {
    return static_cast<std::size_t>(y * nx_ + x);
  }

  std::int64_t nx_;
  std::int64_t ny_;
  std::vector<std::uint8_t> bins_;
};

/// A random window of an nx x ny grid: usually at most 13 bins a side, one
/// time in four as wide as the grid, so that windows start, end and cross
/// 64-bit word edges.  Windows hang off every edge now and then to exercise
/// the clamping.
struct WindowDraw {
  Rng& rng;
  std::int64_t nx;
  std::int64_t ny;

  std::int64_t draw(std::int64_t bound) {
    return static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(bound)));
  }
  void operator()(std::int64_t& bx0, std::int64_t& by0, std::int64_t& bx1,
                  std::int64_t& by1) {
    bx0 = draw(nx + 8) - 4;
    by0 = draw(ny + 8) - 4;
    bx1 = bx0 + draw(rng.below(4) == 0 ? nx + 8 : 14);
    by1 = by0 + draw(14);
  }
};

/// Grids of widths on, just before and just after one and two 64-bit word
/// edges, beside narrow, tall and empty ones.
constexpr std::int64_t kDims[][2] = {
    {57, 43}, {1, 1},   {64, 3},    {3, 64},   {0, 5},   {63, 9},  {64, 17},
    {65, 11}, {127, 7}, {128, 13}, {129, 5}, {200, 29}};

TEST(OccupancyIndex, MatchesByteGridOnRandomMarkQuerySequences) {
  // An index built empty and only ever marked must answer every query as
  // the byte grid beside it does.  Marks cover clear windows only, as the
  // floorplan's do.
  Rng rng(0xace);
  for (const auto& [nx, ny] : kDims) {
    OccupancyIndex index(nx, ny);
    ByteGrid grid(nx, ny);
    WindowDraw random_window{rng, nx, ny};
    std::int64_t marks = 0;
    for (int op = 0; op < 4000; ++op) {
      std::int64_t bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;
      random_window(bx0, by0, bx1, by1);
      if (rng.below(4) == 0) {
        if (grid.count(bx0, by0, bx1, by1) == 0) {
          index.mark(bx0, by0, bx1, by1);
          grid.mark(bx0, by0, bx1, by1);
          ++marks;
        }
        continue;
      }
      ASSERT_EQ(index.rect_clear(bx0, by0, bx1, by1),
                grid.count(bx0, by0, bx1, by1) == 0)
          << nx << "x" << ny << " op " << op;
      ASSERT_EQ(index.rightmost_occupied(bx0, by0, bx1, by1),
                grid.rightmost(bx0, by0, bx1, by1))
          << nx << "x" << ny << " op " << op;
      ASSERT_EQ(index.occupied_bins(), grid.count(0, 0, nx, ny))
          << nx << "x" << ny << " op " << op;
    }
    if (nx == 57 || nx == 200) {
      EXPECT_GT(marks, 100) << nx << "x" << ny;  // the sequence filled it
    }
  }
}

TEST(OccupancySnapshot, MatchesByteGridOnRandomWindowsOverRandomOccupancy) {
  // The placer queries a snapshot of each tier: it must answer every
  // window, fold every window's rows into the band the byte grid's
  // column-OR gives and scan that band for occupied columns as the byte
  // grid does, over fills from nearly empty to nearly full, and keep
  // answering for the occupancy it was taken from after the index is
  // marked again.
  Rng rng(0x5a7);
  std::int64_t blocked = 0;
  std::int64_t clear = 0;
  std::vector<std::uint64_t> band;
  for (const auto& [nx, ny] : kDims) {
    for (const int fill : {2, 40, 400}) {
      OccupancyIndex index(nx, ny);
      ByteGrid grid(nx, ny);
      WindowDraw random_window{rng, nx, ny};
      std::int64_t bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;
      for (int m = 0; m < fill; ++m) {
        random_window(bx0, by0, bx1, by1);
        if (grid.count(bx0, by0, bx1, by1) == 0) {
          index.mark(bx0, by0, bx1, by1);
          grid.mark(bx0, by0, bx1, by1);
        }
      }
      const OccupancySnapshot snapshot(index);
      // Later marks change the index, not the snapshot.
      ByteGrid later = grid;
      for (int m = 0; m < 20; ++m) {
        random_window(bx0, by0, bx1, by1);
        if (later.count(bx0, by0, bx1, by1) == 0) {
          index.mark(bx0, by0, bx1, by1);
          later.mark(bx0, by0, bx1, by1);
        }
      }
      for (int q = 0; q < 1500; ++q) {
        random_window(bx0, by0, bx1, by1);
        const bool want_clear = grid.count(bx0, by0, bx1, by1) == 0;
        ASSERT_EQ(snapshot.rect_clear(bx0, by0, bx1, by1), want_clear)
            << nx << "x" << ny << " fill " << fill << " query " << q;
        snapshot.band(by0, by1, band);
        ASSERT_EQ(band, grid.column_or(by0, by1))
            << nx << "x" << ny << " fill " << fill << " query " << q;
        // The band scans a legal-run row walk makes from the window's
        // clamped edges.
        const std::int64_t cx0 = std::clamp<std::int64_t>(bx0, 0, nx);
        const std::int64_t cx1 = std::clamp<std::int64_t>(bx1, 0, nx);
        const std::int64_t first = grid.leftmost(cx0, by0, nx, by1);
        ASSERT_EQ(snapshot.next_occupied(band, cx0), first < 0 ? nx : first)
            << nx << "x" << ny << " fill " << fill << " query " << q;
        ASSERT_EQ(snapshot.last_occupied_below(band, cx1),
                  grid.rightmost(0, by0, cx1, by1))
            << nx << "x" << ny << " fill " << fill << " query " << q;
        ++(want_clear ? clear : blocked);
      }
      // Full-height bands, clamped or not, and empty ones.
      for (const auto& [y0, y1] : {std::pair<std::int64_t, std::int64_t>{0, ny},
                                   {-4, ny + 4},
                                   {3, 3},
                                   {5, 2},
                                   {ny, ny + 6}}) {
        snapshot.band(y0, y1, band);
        ASSERT_EQ(band, grid.column_or(y0, y1))
            << nx << "x" << ny << " fill " << fill << " band " << y0 << ".."
            << y1;
      }
    }
  }
  // Both answers are exercised.
  EXPECT_GT(blocked, 10000) << clear;
  EXPECT_GT(clear, 10000) << blocked;
}

TEST(OccupancyIndex, MarkingAnOccupiedWindowIsAPreconditionError) {
  OccupancyIndex index(8, 8);
  index.mark(2, 2, 5, 5);
  EXPECT_THROW(index.mark(4, 4, 6, 6), PreconditionError);
  EXPECT_THROW(index.mark(-3, -3, 20, 20), PreconditionError);
  // A refused mark changes nothing: [2, 5) x [2, 5) is all that is
  // occupied.
  EXPECT_EQ(index.occupied_bins(), 9);
  EXPECT_EQ(index.rightmost_occupied(0, 0, 8, 8), 4);
  EXPECT_TRUE(index.rect_clear(0, 0, 8, 2));
  EXPECT_TRUE(index.rect_clear(0, 5, 8, 8));
  EXPECT_TRUE(index.rect_clear(0, 0, 2, 8));
  EXPECT_EQ(index.rightmost_occupied(0, 3, 8, 4), 4);
  // Windows that touch the occupied one only at an edge are clear, and
  // empty or off-grid windows mark nothing.
  index.mark(5, 2, 8, 5);
  index.mark(3, 3, 3, 7);
  index.mark(-5, -5, 0, 0);
  EXPECT_EQ(index.occupied_bins(), 18);
  EXPECT_EQ(index.rightmost_occupied(0, 3, 8, 4), 7);
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

TEST(FloorplanDifferential, QueriesAgreeWithIndexOnAndOff) {
  // Every floorplan query, answered from the occupancy index, against a
  // byte grid the test keeps by marking each allocated region's bin window
  // itself (the naive bin loops the queries once ran).
  Rng rng(0xf100);
  const auto tier = tech::TierKind::kSiCmosFeol;
  for (int trial = 0; trial < 8; ++trial) {
    Floorplan fp(4000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    const std::int64_t nx = fp.bins_x();
    const std::int64_t ny = fp.bins_y();
    const double bin = fp.bin_um();
    ByteGrid grid(nx, ny);
    const auto grid_clear = [&](const Rect& r) {
      const BinSpan s = fp.bin_span(r);
      return grid.count(s.x0, s.y0, s.x1, s.y1) == 0;
    };
    const auto random_rect = [&] {
      const double x = rng.uniform() * 3900.0;
      const double y = rng.uniform() * 2900.0;
      const double w = 20.0 + rng.uniform() * 800.0;
      const double h = 20.0 + rng.uniform() * 800.0;
      return Rect::at(x, y, w, h);
    };
    for (int op = 0; op < 300; ++op) {
      switch (rng.below(2)) {
        case 0: {
          const Rect r = random_rect();
          const bool free = grid_clear(r);
          ASSERT_EQ(fp.region_free(tier, r), free)
              << "trial " << trial << " op " << op;
          ASSERT_EQ(fp.allocate_region(tier, r), free)
              << "trial " << trial << " op " << op;
          if (free) {
            const BinSpan s = fp.bin_span(r);
            grid.mark(s.x0, s.y0, s.x1, s.y1);
          }
          break;
        }
        default: {
          const std::int64_t used = grid.count(0, 0, nx, ny);
          const auto free_bins = static_cast<double>(nx * ny - used);
          ASSERT_TRUE(same_bits(fp.free_area_um2(tier), free_bins * bin * bin))
              << "trial " << trial << " op " << op;
          ASSERT_TRUE(same_bits(fp.utilization(tier),
                                static_cast<double>(used) /
                                    static_cast<double>(nx * ny)))
              << "trial " << trial << " op " << op;
          break;
        }
      }
    }
  }
}

TEST(FloorplanDifferential, PlaceMacroAnywhereAgreesWithNaiveScan) {
  // place_macro_anywhere resumes first fit at the last hit of the same
  // shape (width, height and blocked tiers).  Besides fresh shapes, the
  // sequences repeat earlier shapes, give an earlier shape's size other
  // blocked tiers, keep one side of an earlier shape and change the other,
  // ask for a shape that fits nowhere and then for one that fits, and mark
  // the floorplan between calls with place_macro and allocate_region.
  // Every call must land where a bin-by-bin scan from the origin lands.
  Rng seq(0x9a);
  constexpr tech::TierKind kTiers[] = {tech::TierKind::kSiCmosFeol,
                                       tech::TierKind::kRram,
                                       tech::TierKind::kCnfetFeol};
  int repeats_placed = 0;
  int retiered = 0;
  int resized = 0;
  int fits_after_miss = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Floorplan fast_fp(3000.0, 3000.0, tech::TierStack::make_m3d_130nm(), 50.0);
    Floorplan naive_fp = fast_fp;
    std::vector<Macro> drawn;
    const auto place_both = [&](const Macro& macro) {
      const auto fast_placed = fast_fp.place_macro_anywhere(macro);
      const auto naive_placed =
          reference::naive_place_macro_anywhere(naive_fp, macro);
      EXPECT_EQ(fast_placed.has_value(), naive_placed.has_value())
          << "trial " << trial << " " << macro.name;
      if (fast_placed.has_value() && naive_placed.has_value()) {
        EXPECT_TRUE(same_rect(*fast_placed, *naive_placed))
            << "trial " << trial << " " << macro.name;
      }
      drawn.push_back(macro);
      return fast_placed.has_value();
    };
    for (int op = 0; op < 60 && !HasFailure(); ++op) {
      const std::string name = "m" + std::to_string(op);
      switch (seq.below(9)) {
        case 0: {
          const Rect r = Rect::at(seq.uniform() * 2900.0, seq.uniform() * 2900.0,
                                  20.0 + seq.uniform() * 500.0,
                                  20.0 + seq.uniform() * 500.0);
          const tech::TierKind tier = kTiers[seq.below(3)];
          ASSERT_EQ(fast_fp.allocate_region(tier, r),
                    naive_fp.allocate_region(tier, r))
              << "trial " << trial << " op " << op;
          break;
        }
        case 1: {
          const Macro macro =
              Macro::rram_periph(name, 1.0e4 + seq.uniform() * 2.0e5);
          const double x = seq.uniform() * 2900.0;
          const double y = seq.uniform() * 2900.0;
          ASSERT_EQ(fast_fp.place_macro(macro, x, y),
                    naive_fp.place_macro(macro, x, y))
              << "trial " << trial << " op " << op;
          break;
        }
        case 2:
        case 3:
          if (!drawn.empty()) {
            Macro macro = drawn[seq.below(drawn.size())];
            macro.name = name;
            if (place_both(macro)) ++repeats_placed;
            break;
          }
          [[fallthrough]];
        case 4:
          if (!drawn.empty()) {
            Macro macro = drawn[seq.below(drawn.size())];
            macro.name = name;
            const bool was[] = {macro.blocks_si, macro.blocks_rram,
                                macro.blocks_cnfet};
            while (macro.blocks_si == was[0] && macro.blocks_rram == was[1] &&
                   macro.blocks_cnfet == was[2]) {
              macro.blocks_si = seq.below(2) == 0;
              macro.blocks_rram = seq.below(2) == 0;
              macro.blocks_cnfet = seq.below(2) == 0;
            }
            place_both(macro);
            ++retiered;
            break;
          }
          [[fallthrough]];
        case 5:
          if (!drawn.empty()) {
            Macro macro = drawn[seq.below(drawn.size())];
            macro.name = name;
            double& side = seq.below(2) == 0 ? macro.width_um : macro.height_um;
            side *= 0.5 + seq.uniform();
            place_both(macro);
            ++resized;
            break;
          }
          [[fallthrough]];
        case 6: {
          // Larger than any free square left (or than the die), then small.
          const bool big = place_both(Macro::rram_array_2d(
              name + "_big", 6.0e6 + seq.uniform() * 4.0e6));
          const bool small =
              place_both(Macro::rram_array_m3d(name + "_small", 1.0e4));
          if (!big && small) ++fits_after_miss;
          break;
        }
        default: {
          const double area = 1.0e4 + seq.uniform() * 8.0e5;
          place_both(seq.below(2) == 0 ? Macro::rram_array_m3d(name, area)
                                       : Macro::rram_array_2d(name, area));
          break;
        }
      }
    }
    for (const tech::TierKind tier : kTiers) {
      EXPECT_TRUE(
          same_bits(fast_fp.utilization(tier), naive_fp.utilization(tier)))
          << "trial " << trial;
    }
  }
  // The sequences reach every case the cursor must get right.
  EXPECT_GT(repeats_placed, 20);
  EXPECT_GT(retiered, 20);
  EXPECT_GT(resized, 20);
  EXPECT_GT(fits_after_miss, 15);
}

TEST(PlacerMetrics, CountersTrackScanAndSkipActivity) {
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
