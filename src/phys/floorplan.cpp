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
    grids_.push_back(
        {tier.kind, std::vector<std::uint8_t>(
                        static_cast<std::size_t>(nx_ * ny_), 0),
         OccupancyIndex{}});
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

void Floorplan::refresh_index(const TierGrid& grid) const {
  grid.index.refresh(grid.occupied.data(), nx_, ny_);
}

const OccupancyIndex& Floorplan::occupancy_index(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  refresh_index(*grid);
  return grid->index;
}

void Floorplan::mark(TierGrid& grid, const Rect& rect) {
  const BinSpan s = bin_span(rect);
  for (std::int64_t y = s.y0; y < s.y1; ++y) {
    for (std::int64_t x = s.x0; x < s.x1; ++x) {
      grid.occupied[static_cast<std::size_t>(y * nx_ + x)] = 1;
    }
  }
  grid.index.invalidate();
}

bool Floorplan::clear_in(const TierGrid& grid, const Rect& rect) const {
  const BinSpan s = bin_span(rect);
  if (placer_index_enabled()) {
    refresh_index(grid);
    return grid.index.rect_clear(s.x0, s.y0, s.x1, s.y1);
  }
  for (std::int64_t y = s.y0; y < s.y1; ++y) {
    for (std::int64_t x = s.x0; x < s.x1; ++x) {
      if (grid.occupied[static_cast<std::size_t>(y * nx_ + x)] != 0) {
        return false;
      }
    }
  }
  return true;
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
  if (!placer_index_enabled()) {
    // Naive reference scan: try every bin position in row-major order.
    for (std::int64_t by = 0; by < ny_; ++by) {
      for (std::int64_t bx = 0; bx < nx_; ++bx) {
        const double x = static_cast<double>(bx) * bin_um_;
        const double y = static_cast<double>(by) * bin_um_;
        if (place_macro(macro, x, y)) {
          return Rect::at(x, y, macro.width_um, macro.height_um);
        }
      }
    }
    return std::nullopt;
  }
  // Run-skipping scan, same first-fit order as the naive loop: a blocked
  // candidate learns the rightmost occupied column inside its bin window
  // and every following candidate whose window still starts at or before
  // that column is rejected without re-querying (it provably contains the
  // same occupied bin — the window rows are fixed along a scan row and the
  // window right edge only grows).
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
        refresh_index(g);
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
  const bool fast = placer_index_enabled();
  if (fast) refresh_index(*grid);
  for (std::int64_t by = 0; by + bh <= ny_; ++by) {
    std::int64_t skip_col = -1;
    for (std::int64_t bx = 0; bx + bw <= nx_; ++bx) {
      const Rect rect = Rect::at(static_cast<double>(bx) * bin_um_,
                                 static_cast<double>(by) * bin_um_,
                                 static_cast<double>(bw) * bin_um_,
                                 static_cast<double>(bh) * bin_um_);
      if (fast) {
        const BinSpan s = bin_span(rect);
        if (s.x0 <= skip_col) continue;
        if (!grid->index.rect_clear(s.x0, s.y0, s.x1, s.y1)) {
          skip_col = grid->index.rightmost_occupied(s.x0, s.y0, s.x1, s.y1);
          continue;
        }
        return rect;
      }
      if (clear_in(*grid, rect)) return rect;
    }
  }
  return std::nullopt;
}

double Floorplan::free_area_um2(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  if (placer_index_enabled()) {
    refresh_index(*grid);
    return static_cast<double>(nx_ * ny_ - grid->index.occupied_bins()) *
           bin_um_ * bin_um_;
  }
  std::int64_t free_bins = 0;
  for (const std::uint8_t occ : grid->occupied) {
    if (occ == 0) ++free_bins;
  }
  return static_cast<double>(free_bins) * bin_um_ * bin_um_;
}

double Floorplan::utilization(tech::TierKind tier) const {
  const TierGrid* grid = grid_for(tier);
  expects(grid != nullptr, "tier has no placement grid");
  if (placer_index_enabled()) {
    refresh_index(*grid);
    return static_cast<double>(grid->index.occupied_bins()) /
           static_cast<double>(nx_ * ny_);
  }
  std::int64_t used = 0;
  for (const std::uint8_t occ : grid->occupied) {
    if (occ != 0) ++used;
  }
  return static_cast<double>(used) / static_cast<double>(nx_ * ny_);
}

}  // namespace uld3d::phys
