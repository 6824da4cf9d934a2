// The naive placement scans: every candidate tested from scratch, in scan
// order, through the public Floorplan API only.  These are the oracles that
// Floorplan::place_macro_anywhere's resumable run-skipping scan and
// Placer::place's best-first search, legal-run tables and sibling buckets
// must reproduce bit for bit (placements, HPWL, unplaced names and RNG
// consumption).
#pragma once

#include <optional>
#include <vector>

#include "uld3d/phys/floorplan.hpp"
#include "uld3d/phys/placer.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::phys::reference {

/// place_macro_anywhere as a bin-by-bin first fit: the first lower-left bin
/// corner, in row-major order, where Floorplan::place_macro succeeds.
std::optional<Rect> naive_place_macro_anywhere(Floorplan& fp,
                                               const Macro& macro);

/// Which paths one naive_place call took.
struct NaivePlaceTrace {
  /// The constructive pass failed and the shelf packing ran.
  bool shelf_fallback = false;
  /// A block took the second-chance scan (step / 2) after an earlier block
  /// had been placed.
  bool second_chance_after_commit = false;
};

/// Placer(options).place(fp, blocks, rng) with exhaustive scans: the
/// constructive pass prices every legal candidate and keeps the first
/// strictly cheaper one, the shelf fallback restarts its first-fit scan at
/// the die origin for every block, and legality tests every placed sibling.
/// `trace`, when given, reports which paths the call took.
PlacementResult naive_place(const PlacerOptions& options, Floorplan& fp,
                            const std::vector<SoftBlock>& blocks, Rng& rng,
                            NaivePlaceTrace* trace = nullptr);

}  // namespace uld3d::phys::reference
