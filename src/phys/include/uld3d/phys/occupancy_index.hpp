// Acceleration structures for the placement engine.
//
// The phys flow's hot side is occupancy *queries*: the macro scan asks
// "is this rectangle free?" against a tier's occupancy, the placer's
// legal-run tables ask which columns of a row's bin band are free, and the
// anneal asks "does this rectangle overlap a placed sibling?" for each of
// its moves.  Three structures answer them:
//
//  * OccupancyIndex — one tier's occupancy, one bit per bin, each bin row a
//    run of 64-bit words, plus a running occupied count.  A mark, a
//    rectangle query and a rightmost-occupied query are word scans over the
//    window's rows, O(window); the macro scan's blocked window learns the
//    rightmost occupied column inside it and can jump its x cursor past
//    the whole blocking run instead of advancing one bin.  Const queries
//    write nothing (they are safe to run concurrently).
//
//  * OccupancySnapshot — an immutable copy of an index as a sparse table
//    of OR-folded rows: level k holds, for every row y, the OR of rows
//    [y, y + 2^k) as ceil(nx/64) words, so any band of rows is the OR of
//    two entries of one level.  `band` returns that folded row, which a
//    legal-run row walks column by column through `next_occupied` and
//    `last_occupied_below`, and a rectangle query masks it over the
//    window's words, O(window / 64).  Placer::place marks nothing
//    until it commits, so it takes one snapshot per tier and runs every
//    query of the placement against it.
//
//  * FreeBinMap — the bins of one snapshot that are free and lie in none of
//    a set of blocked windows, as a sparse table of AND-folded rows.  Its
//    one query asks whether any of a set of columns starts a free window of
//    a given width over a band of rows: a fold, an erosion along x and a
//    mask, O(nx / 64 · log width).  A legal-run table first used after
//    siblings were committed asks it before building a row, and a row it
//    answers "no" for is dead without a walk (DESIGN.md §12).
//
//  * RectBuckets — a uniform-bucket spatial index over placed rectangles,
//    replacing the anneal's O(placed) sibling-overlap loop.  Queries test
//    only rectangles sharing a bucket with the probe; the overlap predicate
//    itself is Rect::overlaps on the exact stored rectangles, so the answer
//    is identical to the full loop.
//
// The naive scans these structures replace are kept in
// tests/reference/naive_placement as the oracle of the differential tests.
//
// None of the classes is safe for concurrent mutation; each thread owns its
// Floorplan/Placer state (the chip_summary fan-out builds one flow per
// task).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "uld3d/phys/geometry.hpp"

namespace uld3d::phys {

/// A rectangle's (clamped) window of grid bins: columns [x0, x1), rows
/// [y0, y1).  Floorplan::bin_span is the single source of truth for
/// um -> bin quantization; every occupancy query, mark and skip decision
/// goes through it, so the run-skipping scans can never disagree with a
/// query about which bins a rectangle covers.
struct BinSpan {
  std::int64_t x0 = 0;
  std::int64_t y0 = 0;
  std::int64_t x1 = 0;
  std::int64_t y1 = 0;
};

/// Occupancy of an nx x ny bin grid.  Every window argument is clamped to
/// the grid; an empty window holds nothing.
class OccupancyIndex {
 public:
  /// An nx x ny grid with no bin occupied.
  OccupancyIndex(std::int64_t nx, std::int64_t ny);

  /// Occupy every bin of [bx0, bx1) x [by0, by1).  The window must be
  /// clear (PreconditionError otherwise): callers test it first, and a
  /// clear window is what keeps the running occupied count exact.
  void mark(std::int64_t bx0, std::int64_t by0, std::int64_t bx1,
            std::int64_t by1);

  /// True when the window holds no occupied bin.
  [[nodiscard]] bool rect_clear(std::int64_t bx0, std::int64_t by0,
                                std::int64_t bx1, std::int64_t by1) const;

  /// Largest occupied column in [bx0, bx1) over rows [by0, by1), or -1 when
  /// the window is clear.  A left-to-right scan whose window is blocked can
  /// resume at the returned column + 1: every window starting at or before
  /// it still contains that occupied bin.
  [[nodiscard]] std::int64_t rightmost_occupied(std::int64_t bx0,
                                                std::int64_t by0,
                                                std::int64_t bx1,
                                                std::int64_t by1) const;

  /// Occupied bins in the whole grid (O(1)).
  [[nodiscard]] std::int64_t occupied_bins() const { return occupied_; }

 private:
  friend class OccupancySnapshot;

  /// Index into bits_ of word w of row y.
  [[nodiscard]] std::size_t word(std::int64_t y, std::int64_t w) const {
    return static_cast<std::size_t>(y * words_ + w);
  }

  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::int64_t words_ = 0;  ///< 64-bit words per row, ceil(nx / 64)
  /// ny * words_; bit x % 64 of bits_[y * words_ + x / 64] is bin (x, y).
  std::vector<std::uint64_t> bits_;
  std::int64_t occupied_ = 0;
};

/// An immutable copy of one OccupancyIndex that folds any band of rows in
/// O(nx / 64) and answers rectangle queries with the index's clamping and
/// answers.  It does not follow later marks of the index.
class OccupancySnapshot {
 public:
  explicit OccupancySnapshot(const OccupancyIndex& index);

  /// True when the window holds no occupied bin.
  [[nodiscard]] bool rect_clear(std::int64_t bx0, std::int64_t by0,
                                std::int64_t bx1, std::int64_t by1) const;

  /// The OR of rows [y0, y1) (clamped to the grid) into `out`, resized to
  /// ceil(nx / 64) words: bit x % 64 of out[x / 64] is set when some row
  /// of the band occupies column x.  An empty band folds to all zeros, and
  /// the bits past column nx - 1 are always zero.
  void band(std::int64_t y0, std::int64_t y1,
            std::vector<std::uint64_t>& out) const;

  /// The first column at or after `x` (x >= 0) that a band folded by
  /// `band` occupies, or nx when there is none.
  [[nodiscard]] std::int64_t next_occupied(
      const std::vector<std::uint64_t>& band, std::int64_t x) const;

  /// The last column below `x` (x <= nx) that a band folded by `band`
  /// occupies, or -1 when there is none.
  [[nodiscard]] std::int64_t last_occupied_below(
      const std::vector<std::uint64_t>& band, std::int64_t x) const;

 private:
  friend class FreeBinMap;

  /// Rows [y0, y1), for 0 <= y0 < y1 <= ny, as the OR of two entries of
  /// level k = floor(log2(y1 - y0)): those of rows y0 and y1 - 2^k, which
  /// start at words `lo` and `hi` of the level.
  struct Fold {
    const std::vector<std::uint64_t>& level;
    std::size_t lo;
    std::size_t hi;

    /// Word w of the folded row.
    [[nodiscard]] std::uint64_t word(std::size_t w) const {
      return level[lo + w] | level[hi + w];
    }
  };
  [[nodiscard]] Fold fold(std::int64_t y0, std::int64_t y1) const;

  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::int64_t words_ = 0;  ///< 64-bit words per row, ceil(nx / 64)
  /// levels_[k] holds (ny - 2^k + 1) * words_ words; its entry y, at word
  /// y * words_, is the OR of rows [y, y + 2^k).  Level 0 is the index's
  /// rows.
  std::vector<std::vector<std::uint64_t>> levels_;
};

// A legal-run row walk calls the two band scans once per column it visits,
// so they are inline.
inline std::int64_t OccupancySnapshot::next_occupied(
    const std::vector<std::uint64_t>& band, std::int64_t x) const {
  if (x >= nx_) return nx_;
  auto w = static_cast<std::size_t>(x / 64);
  std::uint64_t bits = band[w] & (~std::uint64_t{0} << (x % 64));
  while (bits == 0) {
    if (++w == band.size()) return nx_;
    bits = band[w];
  }
  return static_cast<std::int64_t>(w) * 64 + std::countr_zero(bits);
}

inline std::int64_t OccupancySnapshot::last_occupied_below(
    const std::vector<std::uint64_t>& band, std::int64_t x) const {
  if (x <= 0) return -1;
  auto w = static_cast<std::size_t>((x - 1) / 64);
  std::uint64_t bits = band[w] & (~std::uint64_t{0} >> (63 - (x - 1) % 64));
  while (bits == 0) {
    if (w == 0) return -1;
    bits = band[--w];
  }
  return static_cast<std::int64_t>(w) * 64 + 63 - std::countl_zero(bits);
}

/// The bins that an OccupancySnapshot leaves free and that lie in none of a
/// set of blocked windows, as a sparse table of AND-folded rows: level k
/// holds, for every row y, the AND of rows [y, y + 2^k) as ceil(nx / 64)
/// words.  Only the levels that bands of `min_rows` to `max_rows` rows read
/// are kept.  It does not follow the index it was snapshotted from.
class FreeBinMap {
 public:
  /// The bins free in `tier` less every bin of `blocked` (each window
  /// clamped to the grid), folded for bands of `min_rows` to `max_rows`
  /// rows (1 <= min_rows <= max_rows <= ny).
  FreeBinMap(const OccupancySnapshot& tier, const std::vector<BinSpan>& blocked,
             std::int64_t min_rows, std::int64_t max_rows);

  /// Take every bin of `window` (clamped to the grid) out of the free bins:
  /// each kept level's entries whose rows meet the window lose its
  /// columns, O(levels · (window rows + 2^level) · window words).
  void block(BinSpan window);

  /// True when some column x whose bit is set in `lefts` (ceil(nx / 64)
  /// words, bit x % 64 of word x / 64) has every bin of
  /// [x, x + width) x [y0, y1) free; a window that reaches past column
  /// nx - 1 is not free.  Requires 0 <= y0, y1 <= ny, min_rows <= y1 - y0
  /// <= max_rows and width >= 1.  `band` is working space; its contents
  /// are overwritten.
  [[nodiscard]] bool any_window_free(std::int64_t y0, std::int64_t y1,
                                     std::int64_t width,
                                     const std::vector<std::uint64_t>& lefts,
                                     std::vector<std::uint64_t>& band) const;

 private:
  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::int64_t words_ = 0;  ///< 64-bit words per row, ceil(nx / 64)
  std::int64_t min_rows_ = 0;
  std::int64_t max_rows_ = 0;
  int first_level_ = 0;  ///< floor(log2(min_rows))
  /// The kept levels, one after the other: level k starts at
  /// offsets_[k - first_level_] and holds (ny - 2^k + 1) * words_ words;
  /// its entry y, at word offsets_[k - first_level_] + y * words_, is the
  /// AND of the free rows [y, y + 2^k).
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> offsets_;
};

/// Uniform-bucket spatial index over identified rectangles.  `overlaps_any`
/// applies Rect::overlaps to the exact rectangles given to `insert`, so its
/// verdict matches a full linear scan; the buckets only narrow which
/// rectangles are tested.
class RectBuckets {
 public:
  /// Buckets covering [0, width_um] x [0, height_um]; `expected` sizes the
  /// bucket grid (~one rect per bucket).
  RectBuckets(double width_um, double height_um, std::size_t expected);

  /// Store `rect` under `id`.  A given id must be removed before it is
  /// re-inserted.
  void insert(std::size_t id, const Rect& rect);

  /// Remove the rectangle previously inserted under `id` (`rect` must be
  /// the same rectangle).
  void remove(std::size_t id, const Rect& rect);

  /// Some stored rectangle with id != `self` overlapping `q`, or nullopt.
  /// Any overlapping rectangle may be returned.
  [[nodiscard]] std::optional<Rect> overlaps_any(const Rect& q,
                                                 std::size_t self) const;

 private:
  struct Entry {
    std::size_t id;
    Rect rect;
  };

  void bucket_span(const Rect& rect, std::int64_t& cx0, std::int64_t& cy0,
                   std::int64_t& cx1, std::int64_t& cy1) const;

  std::int64_t cols_ = 1;
  std::int64_t rows_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<std::vector<Entry>> cells_;
};

}  // namespace uld3d::phys
