#include "uld3d/phys/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>

#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"

namespace uld3d::phys {

double SoftBlock::width_um() const { return std::sqrt(area_um2 * aspect); }
double SoftBlock::height_um() const { return std::sqrt(area_um2 / aspect); }

Placer::Placer(PlacerOptions options) : options_(options) {
  expects(options_.grid_step_um > 0.0, "grid step must be positive");
  expects(options_.anneal_moves >= 0, "anneal moves must be non-negative");
  expects(options_.cooling > 0.0 && options_.cooling < 1.0,
          "cooling factor must be in (0, 1)");
}

namespace {

/// Weighted HPWL of one block at `rect` toward its anchors.  Affinity
/// indices are validated once at the top of Placer::place.
double block_cost(const SoftBlock& block, const Rect& rect,
                  const std::vector<PlacedMacro>& fixed) {
  double cost = 0.0;
  for (const auto& [index, weight] : block.affinities) {
    cost += weight * center_distance(rect, fixed[index].rect);
  }
  return cost;
}

/// Expand a rectangle to the floorplan's bin boundaries — occupancy is
/// committed at bin granularity, so legality must be checked on the
/// bin-expanded footprint or adjacent blocks could collide at commit time.
Rect bin_expand(const Rect& rect, double bin) {
  return {std::floor(rect.x0 / bin) * bin, std::floor(rect.y0 / bin) * bin,
          std::ceil(rect.x1 / bin - 1e-9) * bin,
          std::ceil(rect.y1 / bin - 1e-9) * bin};
}

/// True when the bin-expanded footprint `q` lies inside the die.
bool inside_die(const Floorplan& fp, const Rect& q) {
  return !(q.x0 < 0.0 || q.y0 < 0.0 || q.x1 > fp.width_um() + 1e-6 ||
           q.y1 > fp.height_um() + 1e-6);
}

/// Legal = inside the die, free of fixed blockages, disjoint from siblings.
/// Reference implementation: the full sibling scan, no index involved.
bool legal_naive(const Floorplan& fp, const SoftBlock& block, const Rect& rect,
                 const std::vector<Rect>& placed, std::size_t self) {
  const Rect q = bin_expand(rect, fp.bin_um());
  if (!inside_die(fp, q)) return false;
  if (!fp.region_free(block.tier, q)) return false;
  for (std::size_t i = 0; i < placed.size(); ++i) {
    if (i == self || !placed[i].valid()) continue;
    if (bin_expand(placed[i], fp.bin_um()).overlaps(q)) return false;
  }
  return true;
}

/// One scan position along one axis, with everything the fast-path
/// legality test needs from that axis.  bin_expand, Floorplan::bin_span and
/// the die-bounds test each treat the two axes independently, so a
/// candidate's fields along x do not depend on its y and vice versa: the
/// per-candidate float work (four divisions, floor/ceil, clamps) is done
/// once per position instead of once per (x, y) pair.
struct AxisCandidate {
  double pos = 0.0;      ///< candidate lower edge (um)
  double q0 = 0.0;       ///< bin-expanded lower edge (um)
  double q1 = 0.0;       ///< bin-expanded upper edge (um)
  std::int64_t b0 = 0;   ///< bin window [b0, b1)
  std::int64_t b1 = 0;
  bool inside = false;   ///< bin-expanded extent within the die
};

/// The x (or y) positions of a scan for a block `w` x `h` on a `step` grid.
/// Positions accumulate exactly as the reference loops' `p += step` do, so
/// every candidate rectangle is bit-identical to the naive scan's; the
/// fields come from bin_expand and bin_span on the candidate at (p, 0) (or
/// (0, p)), which the other axis's coordinate cannot change.
void build_axis(std::vector<AxisCandidate>& out, const Floorplan& fp,
                bool x_axis, double w, double h, double step) {
  out.clear();
  const double len = x_axis ? w : h;
  const double side = x_axis ? fp.width_um() : fp.height_um();
  for (double p = 0.0; p + len <= side + 1e-6; p += step) {
    const Rect q = bin_expand(x_axis ? Rect::at(p, 0.0, w, h)
                                     : Rect::at(0.0, p, w, h),
                              fp.bin_um());
    const BinSpan s = fp.bin_span(q);
    AxisCandidate c;
    c.pos = p;
    c.q0 = x_axis ? q.x0 : q.y0;
    c.q1 = x_axis ? q.x1 : q.y1;
    c.b0 = x_axis ? s.x0 : s.y0;
    c.b1 = x_axis ? s.x1 : s.y1;
    c.inside = !(c.q0 < 0.0 || c.q1 > side + 1e-6);
    out.push_back(c);
  }
}

/// Left-to-right skip state for one scan row.  A blocked candidate records
/// what blocked it; later candidates in the same row whose bin-expanded
/// window still reaches the blocker are rejected without a query (the
/// window rows are fixed along a row and its right edge only grows, so the
/// blocker provably still collides).
struct RowSkip {
  std::int64_t grid_col = -1;  ///< rightmost occupied grid column hit
  double sibling_x1 = -1.0;    ///< right edge (um) of a colliding sibling

  [[nodiscard]] bool covers(const AxisCandidate& col) const {
    if (col.q0 < sibling_x1) return true;
    return grid_col >= 0 && col.b0 <= grid_col;
  }
};

}  // namespace

PlacementResult Placer::place(Floorplan& fp,
                              const std::vector<SoftBlock>& blocks,
                              Rng& rng) const {
  PlacementResult result;
  const auto& fixed = fp.macros();
  for (const auto& block : blocks) {
    expects(block.area_um2 > 0.0,
            "soft block area must be positive: " + block.name);
    for (const auto& [index, weight] : block.affinities) {
      expects(index < fixed.size(),
              "affinity index " + std::to_string(index) +
                  " out of range (fixed macros: " +
                  std::to_string(fixed.size()) + ") for block: " + block.name);
    }
  }

  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& c_scanned = registry.counter("phys.placer.candidates_scanned");
  Counter& c_skipped = registry.counter("phys.placer.candidates_skipped");
  Counter& c_legal = registry.counter("phys.placer.legal_checks");

  // Fast-path state: bin-expanded rects of currently placed siblings.  The
  // buckets mirror `rects` exactly (insert on place, remove+insert on an
  // accepted anneal move), so a bucket query equals the naive sibling scan.
  const bool fast = placer_index_enabled();
  const double bin = fp.bin_um();
  RectBuckets buckets(fp.width_um(), fp.height_um(),
                      std::max<std::size_t>(blocks.size(), 1));

  // Constructive pass: biggest blocks first, best legal candidate position.
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].area_um2 > blocks[b].area_um2;
  });

  std::vector<Rect> rects(blocks.size());  // invalid until placed
  const double step = options_.grid_step_um;

  // Fast-path legality of one candidate, from its bin-expanded rect `q`,
  // bin window `s` and die-bounds verdict.  Identical verdict to
  // legal_naive (same bounds comparisons; the occupancy index and the
  // buckets answer the same queries), but a blocked candidate feeds the
  // row-skip state.  Nothing is marked while placing, so `index` stays
  // fresh for the whole call.
  const auto legal_fast = [&](const OccupancyIndex& index, const Rect& q,
                              const BinSpan& s, bool inside, std::size_t self,
                              RowSkip& skip) -> bool {
    if (!inside) return false;
    c_legal.add();
    if (!index.rect_clear(s.x0, s.y0, s.x1, s.y1)) {
      skip.grid_col = index.rightmost_occupied(s.x0, s.y0, s.x1, s.y1);
      return false;
    }
    if (const auto hit = buckets.overlaps_any(q, self)) {
      skip.sibling_x1 = std::max(skip.sibling_x1, hit->x1);
      return false;
    }
    return true;
  };

  // Soft blocks may reshape: each aspect candidate is scanned and the best
  // legal (position, shape) wins.  Mild aspect distortion is slightly
  // penalized so square shapes are preferred when space allows.
  constexpr double kAspects[] = {1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 4.0, 0.25};
  constexpr std::size_t kNumAspects = std::size(kAspects);

  // Visit every legal candidate of block `bi` in scan order — aspects in
  // kAspects order, rows bottom-up, columns left to right, on a
  // `scan_step` grid — calling on_legal(rect, aspect index) until it
  // returns true.  try_place and shelf_place differ only in what they do
  // with a legal candidate.  The naive reference tests each candidate from
  // scratch; the fast path reads per-axis tables and the tier's index, and
  // skips the candidates a blocker in the same row still covers.
  std::vector<AxisCandidate> xs;
  std::vector<AxisCandidate> ys;
  const auto scan = [&](std::size_t bi, double scan_step, auto&& on_legal) {
    const SoftBlock& block = blocks[bi];
    const OccupancyIndex* index =
        fast ? &fp.occupancy_index(block.tier) : nullptr;
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const double aspect = block.aspect * kAspects[a];
      const double w = std::sqrt(block.area_um2 * aspect);
      const double h = std::sqrt(block.area_um2 / aspect);
      if (!fast) {
        for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += scan_step) {
          for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += scan_step) {
            const Rect rect = Rect::at(x, y, w, h);
            c_scanned.add();
            if (legal_naive(fp, block, rect, rects, bi) && on_legal(rect, a)) {
              return;
            }
          }
        }
        continue;
      }
      build_axis(xs, fp, /*x_axis=*/true, w, h, scan_step);
      build_axis(ys, fp, /*x_axis=*/false, w, h, scan_step);
      for (const AxisCandidate& row : ys) {
        RowSkip skip;
        for (auto col = xs.begin(); col != xs.end(); ++col) {
          c_scanned.add();
          if (legal_fast(*index, Rect{col->q0, row.q0, col->q1, row.q1},
                         BinSpan{col->b0, row.b0, col->b1, row.b1},
                         col->inside && row.inside, bi, skip)) {
            if (on_legal(Rect::at(col->pos, row.pos, w, h), a)) return;
            continue;
          }
          // q0 and b0 never decrease along the table, so the candidates
          // the blocker still covers form one run right after it.
          const auto open = std::partition_point(
              col + 1, xs.end(),
              [&](const AxisCandidate& c) { return skip.covers(c); });
          c_skipped.add(static_cast<std::uint64_t>(open - col - 1));
          col = open - 1;
        }
      }
    }
  };

  // Best legal (position, shape) by anchor HPWL plus distortion penalty.
  const auto try_place = [&](std::size_t bi, double scan_step,
                             double penalty_weight) -> Rect {
    double distortion_penalty[kNumAspects];
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      distortion_penalty[a] =
          penalty_weight * fp.width_um() * std::abs(std::log(kAspects[a]));
    }
    double best_cost = std::numeric_limits<double>::infinity();
    Rect best{};
    scan(bi, scan_step, [&](const Rect& rect, std::size_t a) {
      const double cost =
          block_cost(blocks[bi], rect, fixed) + distortion_penalty[a];
      if (cost < best_cost) {
        best_cost = cost;
        best = rect;
      }
      return false;
    });
    return best;
  };

  // First-fit bottom-left scan, ignoring affinities — the dense-packing
  // fallback when affinity-driven placement fragments the free space.
  const auto shelf_place = [&](std::size_t bi) -> Rect {
    Rect first{};
    scan(bi, bin, [&](const Rect& rect, std::size_t) {
      first = rect;
      return true;
    });
    return first;
  };

  const auto commit_rect = [&](std::size_t bi, const Rect& rect) {
    rects[bi] = rect;
    if (fast && rect.valid()) buckets.insert(bi, bin_expand(rect, bin));
  };

  // The constructive pass stops at the first block that fits nowhere: the
  // shelf fallback then discards every constructive rect, and the pass
  // draws no random numbers, so placing the remaining blocks first would
  // change nothing but the time spent.
  bool constructive_failed = false;
  for (const std::size_t bi : order) {
    Rect best = try_place(bi, step, 0.02);
    if (!best.valid()) {
      // Second chance: finer scan, any shape accepted.
      best = try_place(bi, step / 2.0, 0.0);
    }
    if (!best.valid()) {
      constructive_failed = true;
      break;
    }
    commit_rect(bi, best);
  }

  if (constructive_failed) {
    // Affinity-driven placement fragmented the free space; redo the whole
    // placement as a dense bottom-left shelf packing (feasibility first,
    // wirelength second), then let annealing recover locality.
    std::fill(rects.begin(), rects.end(), Rect{});
    buckets.clear();
    for (const std::size_t bi : order) {
      commit_rect(bi, shelf_place(bi));
      if (!rects[bi].valid()) result.unplaced.push_back(blocks[bi].name);
    }
  }

  // Annealing refinement: random relocations, accept downhill (or uphill
  // with Boltzmann probability).
  double temperature = options_.initial_temperature;
  const std::int64_t cols =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(fp.width_um() / step));
  const std::int64_t rows =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(fp.height_um() / step));
  for (int move = 0; move < options_.anneal_moves && !blocks.empty(); ++move) {
    const std::size_t bi = static_cast<std::size_t>(rng.below(blocks.size()));
    if (!rects[bi].valid()) continue;
    const SoftBlock& block = blocks[bi];
    const double x = static_cast<double>(rng.below(static_cast<std::uint64_t>(cols))) * step;
    const double y = static_cast<double>(rng.below(static_cast<std::uint64_t>(rows))) * step;
    // Keep the shape chosen by the constructive pass.
    const Rect candidate =
        Rect::at(x, y, rects[bi].width(), rects[bi].height());
    c_scanned.add();
    if (fast) {
      RowSkip skip;  // single candidate; the hints are unused
      const Rect q = bin_expand(candidate, bin);
      if (!legal_fast(fp.occupancy_index(block.tier), q, fp.bin_span(q),
                      inside_die(fp, q), bi, skip)) {
        continue;
      }
    } else {
      if (!legal_naive(fp, block, candidate, rects, bi)) continue;
    }
    const double old_cost = block_cost(block, rects[bi], fixed);
    const double new_cost = block_cost(block, candidate, fixed);
    const double delta = new_cost - old_cost;
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      if (fast) {
        buckets.remove(bi, bin_expand(rects[bi], bin));
        buckets.insert(bi, bin_expand(candidate, bin));
      }
      rects[bi] = candidate;
    }
    temperature *= options_.cooling;
  }

  // Commit to the floorplan.
  result.success = result.unplaced.empty();
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (!rects[bi].valid()) continue;
    const bool ok = fp.allocate_region(blocks[bi].tier, rects[bi]);
    ensures(ok, "placement committed an illegal region: " + blocks[bi].name);
    Macro m;
    m.name = blocks[bi].name;
    m.kind = MacroKind::kSramBuffer;  // generic soft block marker
    m.width_um = rects[bi].width();
    m.height_um = rects[bi].height();
    result.blocks.push_back({m, rects[bi]});
    result.source_index.push_back(bi);
    result.total_hpwl_um += block_cost(blocks[bi], rects[bi], fixed);
  }
  return result;
}

}  // namespace uld3d::phys
