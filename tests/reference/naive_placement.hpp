// The naive placement scans: every candidate tested from scratch, in scan
// order, through the public Floorplan API only.  These are the oracles that
// Floorplan::place_macro_anywhere's run-skipping scan and Placer::place's
// best-first search, shelf cursor and sibling buckets must reproduce bit
// for bit (placements, HPWL, unplaced names and RNG consumption).
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

/// Placer(options).place(fp, blocks, rng) with exhaustive scans: the
/// constructive pass prices every legal candidate and keeps the first
/// strictly cheaper one, the shelf fallback restarts its first-fit scan at
/// the die origin for every block, and legality tests every placed sibling.
/// `shelf_fallback`, when given, reports whether the constructive pass
/// failed and the shelf packing ran.
PlacementResult naive_place(const PlacerOptions& options, Floorplan& fp,
                            const std::vector<SoftBlock>& blocks, Rng& rng,
                            bool* shelf_fallback = nullptr);

}  // namespace uld3d::phys::reference
