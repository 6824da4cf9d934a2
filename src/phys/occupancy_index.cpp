#include "uld3d/phys/occupancy_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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
    : nx_(index.nx_), ny_(index.ny_), words_(index.words_) {
  levels_.push_back(index.bits_);
  // Level k + 1's entry y is the OR of level k's entries y and y + 2^k.
  for (std::int64_t half = 1; 2 * half <= ny_; half *= 2) {
    const std::vector<std::uint64_t>& below = levels_.back();
    std::vector<std::uint64_t> level(
        static_cast<std::size_t>((ny_ - 2 * half + 1) * words_));
    const auto offset = static_cast<std::size_t>(half * words_);
    for (std::size_t i = 0; i < level.size(); ++i) {
      level[i] = below[i] | below[i + offset];
    }
    levels_.push_back(std::move(level));
  }
}

OccupancySnapshot::Fold OccupancySnapshot::fold(std::int64_t y0,
                                                std::int64_t y1) const {
  const int k = std::bit_width(static_cast<std::uint64_t>(y1 - y0)) - 1;
  return {levels_[static_cast<std::size_t>(k)],
          static_cast<std::size_t>(y0 * words_),
          static_cast<std::size_t>((y1 - (std::int64_t{1} << k)) * words_)};
}

bool OccupancySnapshot::rect_clear(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const {
  if (!clamp_window(nx_, ny_, bx0, by0, bx1, by1)) return true;
  const Fold rows = fold(by0, by1);
  const WordSpan span(bx0, bx1);
  for (std::int64_t w = span.w0; w <= span.w1; ++w) {
    if ((rows.word(static_cast<std::size_t>(w)) & span.mask(w)) != 0) {
      return false;
    }
  }
  return true;
}

void OccupancySnapshot::band(std::int64_t y0, std::int64_t y1,
                             std::vector<std::uint64_t>& out) const {
  out.assign(static_cast<std::size_t>(words_), 0);
  y0 = std::clamp<std::int64_t>(y0, 0, ny_);
  y1 = std::clamp<std::int64_t>(y1, 0, ny_);
  if (y0 >= y1) return;
  const Fold rows = fold(y0, y1);
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = rows.word(w);
}

FreeBinMap::FreeBinMap(const OccupancySnapshot& tier,
                       const std::vector<BinSpan>& blocked,
                       std::int64_t min_rows, std::int64_t max_rows)
    : nx_(tier.nx_),
      ny_(tier.ny_),
      words_(tier.words_),
      min_rows_(min_rows),
      max_rows_(max_rows) {
  expects(1 <= min_rows && min_rows <= max_rows && max_rows <= ny_,
          "a free-bin map folds bands of 1 to ny rows");
  first_level_ = std::bit_width(static_cast<std::uint64_t>(min_rows)) - 1;
  const int top = std::bit_width(static_cast<std::uint64_t>(max_rows)) - 1;
  // Level 0, the snapshot's free bins less the blocked windows, folded in
  // place one level at a time: after fold k the first ny - 2^k + 1 entries
  // are level k, whose entry y is the AND of level k - 1's y and
  // y + 2^(k-1), read before either is overwritten.  The bits past column
  // nx - 1 stay clear, so no window reaches past the grid.
  std::vector<std::uint64_t> level(tier.levels_.front().size());
  for (std::size_t i = 0; i < level.size(); ++i) {
    level[i] = ~tier.levels_.front()[i];
  }
  if (nx_ % kWordBits != 0) {
    const std::uint64_t tail = ~(kAll << (nx_ % kWordBits));
    for (std::int64_t y = 1; y <= ny_; ++y) {
      level[static_cast<std::size_t>(y * words_ - 1)] &= tail;
    }
  }
  for (BinSpan b : blocked) {
    if (!clamp_window(nx_, ny_, b.x0, b.y0, b.x1, b.y1)) continue;
    const WordSpan span(b.x0, b.x1);
    for (std::int64_t y = b.y0; y < b.y1; ++y) {
      for (std::int64_t w = span.w0; w <= span.w1; ++w) {
        level[static_cast<std::size_t>(y * words_ + w)] &= ~span.mask(w);
      }
    }
  }
  const auto level_size = [&](int k) {
    return static_cast<std::size_t>((ny_ - (std::int64_t{1} << k) + 1) *
                                    words_);
  };
  std::size_t kept = 0;
  for (int k = first_level_; k <= top; ++k) kept += level_size(k);
  bits_.reserve(kept);
  for (int k = 0; k <= top; ++k) {
    const std::size_t size = level_size(k);
    if (k > 0) {
      const auto half = static_cast<std::size_t>(
          (std::int64_t{1} << (k - 1)) * words_);
      for (std::size_t i = 0; i < size; ++i) level[i] &= level[i + half];
    }
    if (k >= first_level_) {
      offsets_.push_back(bits_.size());
      bits_.insert(bits_.end(), level.begin(),
                   level.begin() + static_cast<std::ptrdiff_t>(size));
    }
  }
}

void FreeBinMap::block(BinSpan window) {
  if (!clamp_window(nx_, ny_, window.x0, window.y0, window.x1, window.y1)) {
    return;
  }
  // Entry y of level k is the AND of rows [y, y + 2^k), so it loses the
  // window's columns when those rows meet the window's: y in
  // [y0 - 2^k + 1, y1), within the level's ny - 2^k + 1 entries.
  const WordSpan span(window.x0, window.x1);
  for (std::int64_t w = span.w0; w <= span.w1; ++w) {
    const std::uint64_t keep = ~span.mask(w);
    for (std::size_t l = 0; l < offsets_.size(); ++l) {
      const std::int64_t rows = std::int64_t{1}
                                << (first_level_ + static_cast<int>(l));
      const std::int64_t first =
          std::max<std::int64_t>(window.y0 - rows + 1, 0);
      const std::int64_t last = std::min(window.y1, ny_ - rows + 1);
      for (std::int64_t y = first; y < last; ++y) {
        bits_[offsets_[l] + static_cast<std::size_t>(y * words_ + w)] &= keep;
      }
    }
  }
}

bool FreeBinMap::any_window_free(std::int64_t y0, std::int64_t y1,
                                 std::int64_t width,
                                 const std::vector<std::uint64_t>& lefts,
                                 std::vector<std::uint64_t>& band) const {
  expects(0 <= y0 && y1 <= ny_ && min_rows_ <= y1 - y0 &&
              y1 - y0 <= max_rows_ && width >= 1 &&
              lefts.size() == static_cast<std::size_t>(words_),
          "free-bin map query out of range");
  // Bit x of the band is set when column x is free over every row: the AND
  // of level k's entries y0 and y1 - 2^k, which overlap but miss no row.
  const int k = std::bit_width(static_cast<std::uint64_t>(y1 - y0)) - 1;
  const std::size_t level =
      offsets_[static_cast<std::size_t>(k - first_level_)];
  const std::size_t lo = level + static_cast<std::size_t>(y0 * words_);
  const std::size_t hi =
      level +
      static_cast<std::size_t>((y1 - (std::int64_t{1} << k)) * words_);
  const auto words = static_cast<std::size_t>(words_);
  band.resize(words);
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    band[w] = bits_[lo + w] & bits_[hi + w];
    any |= band[w] & lefts[w];
  }
  if (any == 0) return false;
  // Erode along x: while bit x holds the AND of columns [x, x + covered),
  // AND in the bit `shift` columns up, which doubles what it covers, up to
  // the width.  A window of at most 64 columns that starts in word w ends
  // in word w or w + 1, so each word with a start erodes on its own, from
  // those two words (the bits past them never reach word w's), and the
  // words without one are skipped.
  if (width <= kWordBits) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t starts = band[w] & lefts[w];
      if (starts == 0) continue;
      std::uint64_t low = band[w];
      std::uint64_t high = w + 1 < words ? band[w + 1] : 0;
      for (std::int64_t covered = 1; (low & starts) != 0 && covered < width;) {
        const auto shift = static_cast<int>(std::min(covered, width - covered));
        low &= (low >> shift) | (high << (kWordBits - shift));
        high &= high >> shift;
        covered += shift;
      }
      if ((low & starts) != 0) return true;
    }
    return false;
  }
  // Wider windows erode the whole band.  Bits move down within the words
  // in ascending order, so each word reads its sources before they are
  // overwritten.
  for (std::int64_t covered = 1; any != 0 && covered < width;) {
    const std::int64_t shift = std::min(covered, width - covered);
    const auto q = static_cast<std::size_t>(shift / kWordBits);
    const auto r = static_cast<int>(shift % kWordBits);
    any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t low = w + q < words ? band[w + q] : 0;
      const std::uint64_t high = w + q + 1 < words ? band[w + q + 1] : 0;
      band[w] &= r == 0 ? low : (low >> r) | (high << (kWordBits - r));
      any |= band[w] & lefts[w];
    }
    covered += shift;
  }
  return any != 0;
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
