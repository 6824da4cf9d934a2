#include "uld3d/phys/occupancy_index.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {

OccupancyIndex::OccupancyIndex(std::int64_t nx, std::int64_t ny)
    : nx_(nx), ny_(ny) {
  expects(nx >= 0 && ny >= 0, "grid dimensions must be non-negative");
  sat_.assign(static_cast<std::size_t>((nx + 1) * (ny + 1)), 0);
  prev_occ_.assign(static_cast<std::size_t>(nx * ny), -1);
}

bool OccupancyIndex::clamp_window(std::int64_t& bx0, std::int64_t& by0,
                                  std::int64_t& bx1, std::int64_t& by1) const {
  bx0 = std::clamp<std::int64_t>(bx0, 0, nx_);
  bx1 = std::clamp<std::int64_t>(bx1, 0, nx_);
  by0 = std::clamp<std::int64_t>(by0, 0, ny_);
  by1 = std::clamp<std::int64_t>(by1, 0, ny_);
  return bx0 < bx1 && by0 < by1;
}

void OccupancyIndex::mark(std::int64_t bx0, std::int64_t by0,
                          std::int64_t bx1, std::int64_t by1) {
  if (!clamp_window(bx0, by0, bx1, by1)) return;
  expects(rect_clear(bx0, by0, bx1, by1), "marked window must be clear");
  // The prefix sum of [0, x] x [0, y] gains the bins the window shares
  // with it, (min(y+1, by1) - by0) * (min(x+1, bx1) - bx0): the window was
  // clear, so every one of them is newly occupied.
  const std::int64_t stride = nx_ + 1;
  for (std::int64_t y = by0 + 1; y <= ny_; ++y) {
    std::uint32_t* row = sat_.data() + static_cast<std::size_t>(y * stride);
    const auto rows = static_cast<std::uint32_t>(std::min(y, by1) - by0);
    for (std::int64_t x = bx0 + 1; x < bx1; ++x) {
      row[x] += rows * static_cast<std::uint32_t>(x - bx0);
    }
    const auto full = rows * static_cast<std::uint32_t>(bx1 - bx0);
    for (std::int64_t x = bx1; x <= nx_; ++x) row[x] += full;
  }
  // In the window's rows, a window column is its own previous-occupied
  // column, and a column to its right sees at least bx1 - 1.  The table is
  // non-decreasing along a row, so the raise stops at the first column
  // that already sees an occupied bin past the window.
  const auto last = static_cast<std::int32_t>(bx1 - 1);
  for (std::int64_t y = by0; y < by1; ++y) {
    std::int32_t* row = prev_occ_.data() + static_cast<std::size_t>(y * nx_);
    for (std::int64_t x = bx0; x < bx1; ++x) {
      row[x] = static_cast<std::int32_t>(x);
    }
    for (std::int64_t x = bx1; x < nx_ && row[x] < last; ++x) row[x] = last;
  }
}

std::int64_t OccupancyIndex::count(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const {
  if (!clamp_window(bx0, by0, bx1, by1)) return 0;
  const std::int64_t stride = nx_ + 1;
  const auto at = [&](std::int64_t y, std::int64_t x) -> std::int64_t {
    return sat_[static_cast<std::size_t>(y * stride + x)];
  };
  return at(by1, bx1) - at(by0, bx1) - at(by1, bx0) + at(by0, bx0);
}

std::int64_t OccupancyIndex::rightmost_occupied(std::int64_t bx0,
                                                std::int64_t by0,
                                                std::int64_t bx1,
                                                std::int64_t by1) const {
  if (!clamp_window(bx0, by0, bx1, by1)) return -1;
  std::int64_t rightmost = -1;
  for (std::int64_t y = by0; y < by1; ++y) {
    const std::int32_t p = prev_occ_[static_cast<std::size_t>(y * nx_ + bx1 - 1)];
    if (p >= bx0 && p > rightmost) rightmost = p;
  }
  return rightmost;
}

std::int64_t OccupancyIndex::occupied_bins() const {
  return sat_.back();
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
