// Acceleration structures for the placement engine.
//
// The phys flow's hot side is occupancy *queries*: the macro scan and the
// placer's legal-run tables ask "is this rectangle free?" against a tier's
// occupancy, and the anneal asks "does this rectangle overlap a placed
// sibling?" for each of its moves.  Two structures answer them:
//
//  * OccupancyIndex — one tier's occupancy, held as a summed-area table (2D
//    prefix sum of occupied bins) plus a per-row "previous occupied column"
//    table.  A rectangle query is four lookups (O(1)); a blocked scan learns
//    the rightmost occupied column inside its window in O(rows) and can jump
//    its x cursor past the whole blocking run instead of advancing one bin.
//    It is built empty and every `mark` updates both tables in place with
//    exact integer arithmetic, so the index never needs a rebuild and const
//    queries write nothing (they are safe to run concurrently).
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
// Neither class is safe for concurrent mutation; each thread owns its
// Floorplan/Placer state (the chip_summary fan-out builds one flow per
// task).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "uld3d/phys/geometry.hpp"

namespace uld3d::phys {

/// Occupancy of an nx x ny bin grid.  Every window argument is clamped to
/// the grid; an empty window holds nothing.
class OccupancyIndex {
 public:
  /// An nx x ny grid with no bin occupied.
  OccupancyIndex(std::int64_t nx, std::int64_t ny);

  /// Occupy every bin of [bx0, bx1) x [by0, by1).  The window must be
  /// clear (PreconditionError otherwise): callers test it first, and a
  /// clear window is what makes the in-place update exact.
  void mark(std::int64_t bx0, std::int64_t by0, std::int64_t bx1,
            std::int64_t by1);

  /// Number of occupied bins in [bx0, bx1) x [by0, by1).
  [[nodiscard]] std::int64_t count(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const;

  /// True when the window holds no occupied bin.
  [[nodiscard]] bool rect_clear(std::int64_t bx0, std::int64_t by0,
                                std::int64_t bx1, std::int64_t by1) const {
    return count(bx0, by0, bx1, by1) == 0;
  }

  /// Largest occupied column in [bx0, bx1) over rows [by0, by1), or -1 when
  /// the window is clear.  A left-to-right scan whose window is blocked can
  /// resume at the returned column + 1: every window starting at or before
  /// it still contains that occupied bin.
  [[nodiscard]] std::int64_t rightmost_occupied(std::int64_t bx0,
                                                std::int64_t by0,
                                                std::int64_t bx1,
                                                std::int64_t by1) const;

  /// Occupied bins in the whole grid (O(1)).
  [[nodiscard]] std::int64_t occupied_bins() const;

 private:
  /// Clamp the window to the grid; false when nothing of it remains.
  bool clamp_window(std::int64_t& bx0, std::int64_t& by0, std::int64_t& bx1,
                    std::int64_t& by1) const;

  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  /// (nx+1) * (ny+1) inclusive prefix sums; sat_[(y+1)*(nx+1) + (x+1)] is
  /// the occupied count of [0, x] x [0, y].  The grid cap (64M bins) fits
  /// in 32 bits.
  std::vector<std::uint32_t> sat_;
  /// nx * ny; prev_occ_[y*nx + x] is the largest occupied column <= x in
  /// row y, or -1.
  std::vector<std::int32_t> prev_occ_;
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
