#include "uld3d/phys/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "uld3d/util/check.hpp"
#include "uld3d/util/math.hpp"

namespace uld3d::phys {

Floorplan::Floorplan(double width_um, double height_um, tech::TierStack stack,
                     double bin_um)
    : width_um_(width_um),
      height_um_(height_um),
      bin_um_(bin_um),
      nx_(0),
      ny_(0),
      stack_(std::move(stack)) {
  expects(width_um > 0.0 && height_um > 0.0 && std::isfinite(width_um) &&
              std::isfinite(height_um),
          "die dimensions must be positive and finite");
  expects(bin_um > 0.0 && std::isfinite(bin_um),
          "bin size must be positive and finite");
  // Each side is bounded before its cast and the product by a division, so
  // no bin count can overflow.
  constexpr std::int64_t kMaxBins = 64 * 1024 * 1024;
  const double side_x = width_um / bin_um;
  const double side_y = height_um / bin_um;
  expects(side_x <= kMaxBins && side_y <= kMaxBins, "floorplan grid too fine");
  nx_ = ceil_to_int(side_x);
  ny_ = ceil_to_int(side_y);
  expects(nx_ <= kMaxBins / std::max<std::int64_t>(ny_, 1),
          "floorplan grid too fine");
  for (const auto& tier : stack_.tiers()) {
    if (tier.kind == tech::TierKind::kBeolMetal) continue;  // routing only
    grids_.push_back({tier.kind, OccupancyIndex(nx_, ny_)});
  }
}

const Floorplan::TierGrid* Floorplan::grid_for(tech::TierKind tier) const {
  for (const auto& g : grids_) {
    if (g.kind == tier) return &g;
  }
  return nullptr;
}

Floorplan::TierGrid* Floorplan::grid_for(tech::TierKind tier) {
  for (auto& g : grids_) {
    if (g.kind == tier) return &g;
  }
  return nullptr;
}

BinSpan Floorplan::bin_span(const Rect& rect) const {
  const auto [x0, x1] = axis_bins(rect.x0, rect.x1, /*x_axis=*/true);
  const auto [y0, y1] = axis_bins(rect.y0, rect.y1, /*x_axis=*/false);
  return {x0, y0, x1, y1};
}

std::pair<std::int64_t, std::int64_t> Floorplan::axis_bins(double lo, double hi,
                                                           bool x_axis) const {
  const std::int64_t bins = x_axis ? nx_ : ny_;
  return {std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(lo / bin_um_)), 0, bins),
          std::clamp<std::int64_t>(ceil_to_int(hi / bin_um_), 0, bins)};
}

const OccupancyIndex& Floorplan::occupancy_index(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  return grid->index;
}

void Floorplan::mark(TierGrid& grid, const Rect& rect) {
  const BinSpan s = bin_span(rect);
  grid.index.mark(s.x0, s.y0, s.x1, s.y1);
}

bool Floorplan::clear_in(const TierGrid& grid, const Rect& rect) const {
  const BinSpan s = bin_span(rect);
  return grid.index.rect_clear(s.x0, s.y0, s.x1, s.y1);
}

bool Floorplan::place_macro(const Macro& macro, double x, double y) {
  const Rect rect = Rect::at(x, y, macro.width_um, macro.height_um);
  if (rect.x1 > width_um_ + 1e-6 || rect.y1 > height_um_ + 1e-6 ||
      rect.x0 < -1e-6 || rect.y0 < -1e-6) {
    return false;
  }
  for (const auto& g : grids_) {
    if (macro.blocks(g.kind) && !clear_in(g, rect)) return false;
  }
  for (auto& g : grids_) {
    if (macro.blocks(g.kind)) mark(g, rect);
  }
  macros_.push_back({macro, rect});
  return true;
}

std::optional<Rect> Floorplan::place_macro_anywhere(const Macro& macro) {
  // First fit over the bin positions in row-major order — the position a
  // bin-by-bin loop over place_macro would find.  Occupancy only grows, so
  // a position illegal for one macro stays illegal for every later macro of
  // the same shape and blocked grids: the scan resumes at that shape's
  // previous hit.
  std::uint32_t blocked = 0;
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    if (macro.blocks(grids_[g].kind)) blocked |= 1U << g;
  }
  auto cursor = std::find_if(
      cursors_.begin(), cursors_.end(), [&](const MacroCursor& c) {
        return c.width_um == macro.width_um &&
               c.height_um == macro.height_um && c.blocked == blocked;
      });
  if (cursor == cursors_.end()) {
    cursors_.push_back({macro.width_um, macro.height_um, blocked, {}, 0, 0});
    cursor = std::prev(cursors_.end());
  }
  MacroCursor& c = *cursor;
  for (; c.by < ny_; ++c.by, c.bx = 0) {
    const double y = static_cast<double>(c.by) * bin_um_;
    if (y + macro.height_um > height_um_ + 1e-6) {
      // place_macro rejects on the die's top edge; y only grows from here,
      // so no later row can succeed either (same comparison, monotone y).
      return std::nullopt;
    }
    if (c.columns.empty()) {
      // The columns whose rect stays inside the die, with their bin window
      // along x (independent of y).  A shape wider than the die keeps an
      // empty table, and rebuilding it stops at its first column.
      for (std::int64_t bx = 0; bx < nx_; ++bx) {
        const Rect rect = Rect::at(static_cast<double>(bx) * bin_um_, y,
                                   macro.width_um, macro.height_um);
        if (rect.x1 > width_um_ + 1e-6) break;  // monotone in x
        const BinSpan s = bin_span(rect);
        c.columns.push_back({s.x0, s.x1});
      }
      if (c.columns.empty()) continue;
    }
    const BinSpan rows = bin_span(Rect::at(0.0, y, macro.width_um,
                                           macro.height_um));
    const auto columns_end = static_cast<std::int64_t>(c.columns.size());
    while (c.bx < columns_end) {
      const auto [x0, x1] = c.columns[static_cast<std::size_t>(c.bx)];
      std::int64_t blocker = -1;
      for (std::size_t g = 0; g < grids_.size() && blocker < 0; ++g) {
        if ((blocked >> g & 1U) != 0) {
          blocker = grids_[g].index.rightmost_occupied(x0, rows.y0, x1,
                                                       rows.y1);
        }
      }
      if (blocker < 0) {
        const double x = static_cast<double>(c.bx) * bin_um_;
        if (place_macro(macro, x, y)) {
          return Rect::at(x, y, macro.width_um, macro.height_um);
        }
        ++c.bx;
        continue;
      }
      // Every later window that starts at or before the blocking column
      // still holds it.
      c.bx = std::partition_point(
                 c.columns.begin() + c.bx + 1, c.columns.end(),
                 [&](const auto& col) { return col.first <= blocker; }) -
             c.columns.begin();
    }
  }
  return std::nullopt;
}

bool Floorplan::allocate_region(tech::TierKind tier, const Rect& rect) {
  TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  if (!clear_in(*grid, rect)) return false;
  mark(*grid, rect);
  return true;
}

bool Floorplan::region_free(tech::TierKind tier, const Rect& rect) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  return clear_in(*grid, rect);
}

double Floorplan::free_area_um2(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  return static_cast<double>(nx_ * ny_ - grid->index.occupied_bins()) *
         bin_um_ * bin_um_;
}

double Floorplan::utilization(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  return static_cast<double>(grid->index.occupied_bins()) /
         static_cast<double>(nx_ * ny_);
}

}  // namespace uld3d::phys
