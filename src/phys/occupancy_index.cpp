#include "uld3d/phys/occupancy_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {

namespace {

constexpr std::int64_t kWordBits = 64;
constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// Clamp the window to an nx x ny grid; false when nothing of it remains.
bool clamp_window(std::int64_t nx, std::int64_t ny, std::int64_t& bx0,
                  std::int64_t& by0, std::int64_t& bx1, std::int64_t& by1) {
  bx0 = std::clamp<std::int64_t>(bx0, 0, nx);
  bx1 = std::clamp<std::int64_t>(bx1, 0, nx);
  by0 = std::clamp<std::int64_t>(by0, 0, ny);
  by1 = std::clamp<std::int64_t>(by1, 0, ny);
  return bx0 < bx1 && by0 < by1;
}

/// The words w0..w1 of a row that hold columns [bx0, bx1) (non-empty), and
/// each word's mask of those columns.
struct WordSpan {
  std::int64_t w0;
  std::int64_t w1;
  std::uint64_t first;  ///< columns >= bx0 of word w0
  std::uint64_t last;   ///< columns < bx1 of word w1

  WordSpan(std::int64_t bx0, std::int64_t bx1)
      : w0(bx0 / kWordBits),
        w1((bx1 - 1) / kWordBits),
        first(kAll << (bx0 % kWordBits)),
        last(kAll >> (kWordBits - 1 - (bx1 - 1) % kWordBits)) {}

  [[nodiscard]] std::uint64_t mask(std::int64_t w) const {
    return (w == w0 ? first : kAll) & (w == w1 ? last : kAll);
  }
};

}  // namespace

OccupancyIndex::OccupancyIndex(std::int64_t nx, std::int64_t ny)
    : nx_(nx), ny_(ny), words_((nx + kWordBits - 1) / kWordBits) {
  expects(nx >= 0 && ny >= 0, "grid dimensions must be non-negative");
  bits_.assign(static_cast<std::size_t>(words_ * ny), 0);
}

void OccupancyIndex::mark(std::int64_t bx0, std::int64_t by0,
                          std::int64_t bx1, std::int64_t by1) {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return;
  expects(rect_clear(bx0, by0, bx1, by1), "marked window must be clear");
  const WordSpan span(bx0, bx1);
  for (std::int64_t y = by0; y < by1; ++y) {
    for (std::int64_t w = span.w0; w <= span.w1; ++w) {
      bits_[word(y, w)] |= span.mask(w);
    }
  }
  occupied_ += (bx1 - bx0) * (by1 - by0);
}

bool OccupancyIndex::rect_clear(std::int64_t bx0, std::int64_t by0,
                                std::int64_t bx1, std::int64_t by1) const {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return true;
  const WordSpan span(bx0, bx1);
  for (std::int64_t y = by0; y < by1; ++y) {
    for (std::int64_t w = span.w0; w <= span.w1; ++w) {
      if ((bits_[word(y, w)] & span.mask(w)) != 0) return false;
    }
  }
  return true;
}

std::int64_t OccupancyIndex::rightmost_occupied(std::int64_t bx0,
                                                std::int64_t by0,
                                                std::int64_t bx1,
                                                std::int64_t by1) const {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return -1;
  std::int64_t rightmost = -1;
  for (std::int64_t y = by0; y < by1; ++y) {
    // Only columns right of the best so far can raise it.
    const std::int64_t lo = std::max(bx0, rightmost + 1);
    if (lo == bx1) break;
    const WordSpan span(lo, bx1);
    for (std::int64_t w = span.w1; w >= span.w0; --w) {
      const std::uint64_t hit = bits_[word(y, w)] & span.mask(w);
      if (hit != 0) {
        rightmost = w * kWordBits + kWordBits - 1 - std::countl_zero(hit);
        break;
      }
    }
  }
  return rightmost;
}

OccupancySnapshot::OccupancySnapshot(const OccupancyIndex& index)
    : nx_(index.nx_),
      ny_(index.ny_),
      sat_(static_cast<std::size_t>((nx_ + 1) * (ny_ + 1)), 0),
      prev_occ_(static_cast<std::size_t>(nx_ * ny_)) {
  const std::int64_t stride = nx_ + 1;
  for (std::int64_t y = 0; y < ny_; ++y) {
    std::uint32_t run = 0;  // occupied bins of [0, x] in row y
    std::int32_t last = -1;
    for (std::int64_t x = 0; x < nx_; ++x) {
      if ((index.bits_[index.word(y, x / kWordBits)] >> (x % kWordBits) &
           1U) != 0) {
        ++run;
        last = static_cast<std::int32_t>(x);
      }
      const auto at = static_cast<std::size_t>((y + 1) * stride + x + 1);
      sat_[at] = sat_[at - static_cast<std::size_t>(stride)] + run;
      prev_occ_[static_cast<std::size_t>(y * nx_ + x)] = last;
    }
  }
}

bool OccupancySnapshot::rect_clear(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return true;
  const std::int64_t stride = nx_ + 1;
  const auto at = [&](std::int64_t y, std::int64_t x) -> std::int64_t {
    return sat_[static_cast<std::size_t>(y * stride + x)];
  };
  return at(by1, bx1) - at(by0, bx1) - at(by1, bx0) + at(by0, bx0) == 0;
}

std::int64_t OccupancySnapshot::rightmost_occupied(std::int64_t bx0,
                                                   std::int64_t by0,
                                                   std::int64_t bx1,
                                                   std::int64_t by1) const {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return -1;
  std::int64_t rightmost = -1;
  for (std::int64_t y = by0; y < by1; ++y) {
    const std::int32_t p = prev_occ_[static_cast<std::size_t>(y * nx_ + bx1 - 1)];
    if (p >= bx0 && p > rightmost) rightmost = p;
  }
  return rightmost;
}

RectBuckets::RectBuckets(double width_um, double height_um,
                         std::size_t expected) {
  expects(width_um > 0.0 && height_um > 0.0,
          "bucket extent must be positive");
  const auto side = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(
          expected, 1)))));
  cols_ = std::clamp<std::int64_t>(side, 1, 64);
  rows_ = cols_;
  cell_w_ = width_um / static_cast<double>(cols_);
  cell_h_ = height_um / static_cast<double>(rows_);
  cells_.resize(static_cast<std::size_t>(cols_ * rows_));
}

void RectBuckets::bucket_span(const Rect& rect, std::int64_t& cx0,
                              std::int64_t& cy0, std::int64_t& cx1,
                              std::int64_t& cy1) const {
  // Conservative (clamped) cover of the rect; a rect touching a cell
  // boundary may be filed under one extra cell, which only costs a spurious
  // candidate test, never a missed one.
  cx0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.x0 / cell_w_)), 0, cols_ - 1);
  cy0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.y0 / cell_h_)), 0, rows_ - 1);
  cx1 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.x1 / cell_w_)), 0, cols_ - 1);
  cy1 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.y1 / cell_h_)), 0, rows_ - 1);
}

void RectBuckets::insert(std::size_t id, const Rect& rect) {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(rect, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      cells_[static_cast<std::size_t>(cy * cols_ + cx)].push_back({id, rect});
    }
  }
}

void RectBuckets::remove(std::size_t id, const Rect& rect) {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(rect, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      auto& cell = cells_[static_cast<std::size_t>(cy * cols_ + cx)];
      for (std::size_t i = 0; i < cell.size(); ++i) {
        if (cell[i].id == id) {
          cell[i] = cell.back();
          cell.pop_back();
          break;
        }
      }
    }
  }
}

std::optional<Rect> RectBuckets::overlaps_any(const Rect& q,
                                              std::size_t self) const {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(q, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (const Entry& e : cells_[static_cast<std::size_t>(cy * cols_ + cx)]) {
        if (e.id != self && e.rect.overlaps(q)) return e.rect;
      }
    }
  }
  return std::nullopt;
}

}  // namespace uld3d::phys
