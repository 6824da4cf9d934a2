// Grid-based multi-tier floorplan with per-tier blockage maps.
//
// The die is discretized into square bins; each placement tier (Si CMOS,
// RRAM, CNFET) keeps an occupancy index over them.  Macros mark bins on every tier they
// block; standard-cell regions are then allocated from free Si (or CNFET)
// bins.  This mirrors the paper's methodology of expressing the RRAM arrays
// as partial blockages in the M3D flow (Sec. II).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "uld3d/phys/macro.hpp"
#include "uld3d/phys/occupancy_index.hpp"
#include "uld3d/tech/tier_stack.hpp"

namespace uld3d::phys {

class Floorplan {
 public:
  /// A die of `width_um` x `height_um` on `stack`, discretized into bins of
  /// `bin_um` on a side.
  Floorplan(double width_um, double height_um, tech::TierStack stack,
            double bin_um = 100.0);

  [[nodiscard]] double width_um() const { return width_um_; }
  [[nodiscard]] double height_um() const { return height_um_; }
  [[nodiscard]] double die_area_um2() const { return width_um_ * height_um_; }
  [[nodiscard]] const tech::TierStack& stack() const { return stack_; }
  [[nodiscard]] double bin_um() const { return bin_um_; }

  /// Try to place `macro` with its lower-left corner at (x, y).  Fails (and
  /// changes nothing) if it leaves the die or collides on any blocked tier.
  bool place_macro(const Macro& macro, double x, double y);

  /// Scan for the first legal lower-left position for `macro` and place it.
  /// Returns the placed rectangle, or nullopt if the macro cannot fit.
  std::optional<Rect> place_macro_anywhere(const Macro& macro);

  /// All placed macros, in placement order.
  [[nodiscard]] const std::vector<PlacedMacro>& macros() const { return macros_; }

  /// Mark a rectangular standard-cell region as occupied on one tier.
  /// Returns false (no change) if any bin there is already occupied.
  bool allocate_region(tech::TierKind tier, const Rect& rect);

  /// Free area on a placement tier (um^2, bin-quantized).
  [[nodiscard]] double free_area_um2(tech::TierKind tier) const;

  /// Fraction of a tier's bins that are occupied.
  [[nodiscard]] double utilization(tech::TierKind tier) const;

  /// True if the rectangle is fully free on the tier.
  [[nodiscard]] bool region_free(tech::TierKind tier, const Rect& rect) const;

  [[nodiscard]] std::int64_t bins_x() const { return nx_; }
  [[nodiscard]] std::int64_t bins_y() const { return ny_; }

  /// The grid-bin window `rect` covers (clamped to the grid).
  [[nodiscard]] BinSpan bin_span(const Rect& rect) const;

  /// The bins [first, second) that [lo, hi) covers along x (`x_axis`) or
  /// y, clamped to the grid: one axis of bin_span, which quantizes each
  /// axis on its own.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> axis_bins(
      double lo, double hi, bool x_axis) const;

  /// The tier's occupancy, for a caller that marks nothing while it queries
  /// (Placer::place snapshots it once per placement).
  [[nodiscard]] const OccupancyIndex& occupancy_index(
      tech::TierKind tier) const;

 private:
  struct TierGrid {
    tech::TierKind kind;
    OccupancyIndex index;
  };
  /// place_macro_anywhere's first-fit state for one macro shape (width,
  /// height and the grids it blocks): each in-die column's bin window along
  /// x, and the shape's last hit (or where its scan ended).
  struct MacroCursor {
    double width_um;
    double height_um;
    std::uint32_t blocked;  ///< bit g set: the shape blocks grids_[g]
    std::vector<std::pair<std::int64_t, std::int64_t>> columns;
    std::int64_t by;
    std::int64_t bx;
  };

  [[nodiscard]] const TierGrid* grid_for(tech::TierKind tier) const;
  [[nodiscard]] TierGrid* grid_for(tech::TierKind tier);
  /// Occupy `rect`'s bins; the caller has checked them clear.
  void mark(TierGrid& grid, const Rect& rect);
  [[nodiscard]] bool clear_in(const TierGrid& grid, const Rect& rect) const;

  double width_um_;
  double height_um_;
  double bin_um_;
  std::int64_t nx_;
  std::int64_t ny_;
  tech::TierStack stack_;
  std::vector<TierGrid> grids_;
  std::vector<PlacedMacro> macros_;
  std::vector<MacroCursor> cursors_;
};

}  // namespace uld3d::phys
