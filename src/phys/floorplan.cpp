#include "uld3d/phys/floorplan.hpp"

#include <algorithm>
#include <cmath>

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
  expects(width_um > 0.0 && height_um > 0.0, "die dimensions must be positive");
  expects(bin_um > 0.0, "bin size must be positive");
  nx_ = ceil_to_int(width_um / bin_um);
  ny_ = ceil_to_int(height_um / bin_um);
  expects(nx_ * ny_ <= 64 * 1024 * 1024, "floorplan grid too fine");
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
  BinSpan s;
  s.x0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.x0 / bin_um_)), 0, nx_);
  s.y0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.y0 / bin_um_)), 0, ny_);
  s.x1 = std::clamp<std::int64_t>(ceil_to_int(rect.x1 / bin_um_), 0, nx_);
  s.y1 = std::clamp<std::int64_t>(ceil_to_int(rect.y1 / bin_um_), 0, ny_);
  return s;
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
  // bin-by-bin loop over place_macro would find — with run skipping: a
  // blocked candidate learns the rightmost occupied column inside its bin
  // window, and every following candidate whose window still starts at or
  // before that column is rejected without re-querying (it provably
  // contains the same occupied bin — the window rows are fixed along a scan
  // row and the window right edge only grows).
  for (std::int64_t by = 0; by < ny_; ++by) {
    const double y = static_cast<double>(by) * bin_um_;
    if (y + macro.height_um > height_um_ + 1e-6) {
      // place_macro rejects on the die's top edge; y only grows from here,
      // so no later row can succeed either (same comparison, monotone y).
      return std::nullopt;
    }
    std::int64_t skip_col = -1;
    for (std::int64_t bx = 0; bx < nx_; ++bx) {
      const double x = static_cast<double>(bx) * bin_um_;
      const Rect rect = Rect::at(x, y, macro.width_um, macro.height_um);
      if (rect.x1 > width_um_ + 1e-6) break;  // off the right edge; monotone
      const BinSpan s = bin_span(rect);
      if (s.x0 <= skip_col) continue;
      bool blocked = false;
      for (const auto& g : grids_) {
        if (!macro.blocks(g.kind)) continue;
        if (!g.index.rect_clear(s.x0, s.y0, s.x1, s.y1)) {
          skip_col = g.index.rightmost_occupied(s.x0, s.y0, s.x1, s.y1);
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      if (place_macro(macro, x, y)) {
        return Rect::at(x, y, macro.width_um, macro.height_um);
      }
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

std::optional<Rect> Floorplan::find_free_region(tech::TierKind tier,
                                                double w_um,
                                                double h_um) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  const std::int64_t bw = ceil_to_int(w_um / bin_um_);
  const std::int64_t bh = ceil_to_int(h_um / bin_um_);
  for (std::int64_t by = 0; by + bh <= ny_; ++by) {
    std::int64_t skip_col = -1;
    for (std::int64_t bx = 0; bx + bw <= nx_; ++bx) {
      const Rect rect = Rect::at(static_cast<double>(bx) * bin_um_,
                                 static_cast<double>(by) * bin_um_,
                                 static_cast<double>(bw) * bin_um_,
                                 static_cast<double>(bh) * bin_um_);
      const BinSpan s = bin_span(rect);
      if (s.x0 <= skip_col) continue;
      if (!grid->index.rect_clear(s.x0, s.y0, s.x1, s.y1)) {
        skip_col = grid->index.rightmost_occupied(s.x0, s.y0, s.x1, s.y1);
        continue;
      }
      return rect;
    }
  }
  return std::nullopt;
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
