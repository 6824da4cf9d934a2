#include "uld3d/phys/placer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

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

// Soft blocks may reshape: each aspect candidate is scanned and the best
// legal (position, shape) wins.  Mild aspect distortion is slightly
// penalized so square shapes are preferred when space allows.
constexpr double kAspects[] = {1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 4.0, 0.25};
constexpr std::size_t kNumAspects = std::size(kAspects);

/// One scan position along one axis, with everything the legality test and
/// the pricing need from that axis.  bin_expand, Floorplan::bin_span, the
/// die-bounds test and Rect::center each treat the two axes independently,
/// so a candidate's fields along x do not depend on its y and vice versa:
/// the per-candidate float work (four divisions, floor/ceil, clamps) is
/// done once per position instead of once per (x, y) pair.
struct AxisCandidate {
  double pos = 0.0;      ///< candidate lower edge (um)
  double q0 = 0.0;       ///< bin-expanded lower edge (um)
  double q1 = 0.0;       ///< bin-expanded upper edge (um)
  double centre = 0.0;   ///< candidate centre (um), as Rect::center has it
  std::int64_t b0 = 0;   ///< bin window [b0, b1)
  std::int64_t b1 = 0;
  bool inside = false;   ///< bin-expanded extent within the die
};
using AxisIter = std::vector<AxisCandidate>::const_iterator;

/// The x (or y) positions of a scan for a block `w` x `h` on a `step` grid.
/// Positions accumulate with `p += step` from the die origin, as the naive
/// scan's loops do, so every candidate rectangle is bit-identical to its;
/// the fields come from bin_expand, bin_span and Rect::center on the
/// candidate at (p, 0) (or (0, p)), which the other axis's coordinate
/// cannot change.
void build_axis(std::vector<AxisCandidate>& out, const Floorplan& fp,
                bool x_axis, double w, double h, double step) {
  out.clear();
  const double len = x_axis ? w : h;
  const double side = x_axis ? fp.width_um() : fp.height_um();
  for (double p = 0.0; p + len <= side + 1e-6; p += step) {
    const Rect rect = x_axis ? Rect::at(p, 0.0, w, h) : Rect::at(0.0, p, w, h);
    const Rect q = bin_expand(rect, fp.bin_um());
    const BinSpan s = fp.bin_span(q);
    AxisCandidate c;
    c.pos = p;
    c.q0 = x_axis ? q.x0 : q.y0;
    c.q1 = x_axis ? q.x1 : q.y1;
    c.centre = x_axis ? rect.center().x : rect.center().y;
    c.b0 = x_axis ? s.x0 : s.y0;
    c.b1 = x_axis ? s.x1 : s.y1;
    c.inside = !(c.q0 < 0.0 || c.q1 > side + 1e-6);
    out.push_back(c);
  }
}

/// The scan tables of one block shape on one scan step: per aspect
/// candidate, the block's width and height and its x and y axis tables.
struct ShapeTables {
  double area = 0.0;
  double aspect = 0.0;
  double step = 0.0;
  struct Aspect {
    double w = 0.0;
    double h = 0.0;
    std::vector<AxisCandidate> xs;
    std::vector<AxisCandidate> ys;
  };
  std::array<Aspect, kNumAspects> aspects;
};

/// A candidate's place in scan order: aspect (kAspects order), row
/// (bottom-up), column (left to right).
struct ScanPos {
  std::size_t a = 0;
  std::size_t j = 0;
  std::size_t i = 0;
  auto operator<=>(const ScanPos&) const = default;
};

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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

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

  // Bin-expanded rects of the currently placed siblings.  The buckets
  // mirror `rects` exactly (insert on place, remove+insert on an accepted
  // anneal move).
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

  // Legality of one candidate from its bin-expanded rect `q`, bin window
  // `s` and die-bounds verdict: inside the die, clear on the block's tier,
  // disjoint from every placed sibling.  A blocked candidate feeds the
  // row-skip state.  Nothing is marked while placing, so one tier's index
  // serves the whole call.
  const auto legal = [&](const OccupancyIndex& index, const Rect& q,
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

  // Legality of the candidate at (*col, row).  A blocked candidate moves
  // `col` onto the last candidate its blocker still covers — q0 and b0
  // never decrease along the table, so those form one run right after it —
  // and the caller's ++col steps past the run.
  const auto legal_in_row = [&](const OccupancyIndex& index,
                                const AxisCandidate& row, AxisIter& col,
                                AxisIter end, std::size_t self,
                                RowSkip& skip) -> bool {
    if (legal(index, Rect{col->q0, row.q0, col->q1, row.q1},
              BinSpan{col->b0, row.b0, col->b1, row.b1},
              col->inside && row.inside, self, skip)) {
      return true;
    }
    const AxisIter open = std::partition_point(
        col + 1, end, [&](const AxisCandidate& c) { return skip.covers(c); });
    c_skipped.add(static_cast<std::uint64_t>(open - col - 1));
    col = open - 1;
    return false;
  };

  // Scan tables, built once per (shape, scan step) on first use: a
  // design's blocks share a few shapes.  A deque keeps references stable.
  std::deque<ShapeTables> shapes;
  const auto tables_for = [&](const SoftBlock& block,
                              double scan_step) -> const ShapeTables& {
    for (const ShapeTables& t : shapes) {
      if (same_bits(t.area, block.area_um2) &&
          same_bits(t.aspect, block.aspect) && same_bits(t.step, scan_step)) {
        return t;
      }
    }
    ShapeTables& t = shapes.emplace_back();
    t.area = block.area_um2;
    t.aspect = block.aspect;
    t.step = scan_step;
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      ShapeTables::Aspect& tab = t.aspects[a];
      const double aspect = block.aspect * kAspects[a];
      tab.w = std::sqrt(block.area_um2 * aspect);
      tab.h = std::sqrt(block.area_um2 / aspect);
      build_axis(tab.xs, fp, /*x_axis=*/true, tab.w, tab.h, scan_step);
      build_axis(tab.ys, fp, /*x_axis=*/false, tab.w, tab.h, scan_step);
    }
    return t;
  };

  // Best legal (position, shape) by anchor HPWL plus distortion penalty:
  // the least cost, and among equal costs the first in scan order.  Rows
  // are visited best-first under a lower bound on every cost in the row,
  // and only candidates that would displace the incumbent are tested for
  // legality (DESIGN.md §12 has the exactness argument).
  struct Anchor {
    double weight;
    double x;
    double y;
  };
  struct RowKey {
    double bound;
    std::size_t a;
    std::size_t j;
  };
  std::vector<Anchor> anchors;
  std::vector<RowKey> row_order;
  const auto try_place = [&](std::size_t bi, double scan_step,
                             double penalty_weight) -> Rect {
    const SoftBlock& block = blocks[bi];
    const ShapeTables& shape = tables_for(block, scan_step);
    const OccupancyIndex& index = fp.occupancy_index(block.tier);
    double distortion_penalty[kNumAspects];
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      distortion_penalty[a] =
          penalty_weight * fp.width_um() * std::abs(std::log(kAspects[a]));
    }
    // The bound and the V-window hold for finite, non-negative weights and
    // finite anchors; anything else falls back to the plain scan order.
    anchors.clear();
    bool bounded = true;
    for (const auto& [k, weight] : block.affinities) {
      const Point c = fixed[k].rect.center();
      anchors.push_back({weight, c.x, c.y});
      bounded = bounded && std::isfinite(weight) && weight >= 0.0 &&
                std::isfinite(c.x) && std::isfinite(c.y);
    }
    const bool v_window = bounded && anchors.size() == 1;
    // A row's bound drops every |dx| from block_cost's sum: each term
    // w * (|dx| + |dy|) rounds to at least w * |dy|, and rounding keeps the
    // sums in order, so no candidate of the row costs less.
    row_order.clear();
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const std::vector<AxisCandidate>& ys = shape.aspects[a].ys;
      for (std::size_t j = 0; j < ys.size(); ++j) {
        double bound = -std::numeric_limits<double>::infinity();
        if (bounded) {
          bound = 0.0;
          for (const Anchor& anchor : anchors) {
            bound += anchor.weight * std::abs(ys[j].centre - anchor.y);
          }
          bound += distortion_penalty[a];
          // Only coordinates near the double range's end can make it NaN,
          // and -inf bounds every cost.
          if (std::isnan(bound)) {
            bound = -std::numeric_limits<double>::infinity();
          }
        }
        row_order.push_back({bound, a, j});
      }
    }
    std::sort(row_order.begin(), row_order.end(),
              [](const RowKey& l, const RowKey& r) {
                return std::tie(l.bound, l.a, l.j) <
                       std::tie(r.bound, r.a, r.j);
              });

    double best_cost = std::numeric_limits<double>::infinity();
    Rect best{};
    // Until a candidate wins, the first scan position stands in for the
    // incumbent: nothing precedes it, so no cost of +inf (which a strict
    // `<` never takes) can win a tie against it.
    ScanPos incumbent{};
    for (const RowKey& r : row_order) {
      // No candidate costs less than its row's bound and rows come in
      // (bound, aspect, row) order: once a bound passes the best cost, or
      // ties it in a row after the incumbent's, no later row can win.
      if (r.bound > best_cost ||
          (r.bound == best_cost &&
           std::tie(r.a, r.j) > std::tie(incumbent.a, incumbent.j))) {
        break;
      }
      const ShapeTables::Aspect& tab = shape.aspects[r.a];
      const AxisCandidate& row = tab.ys[r.j];
      const auto price = [&](const AxisCandidate& col) {
        double cost = 0.0;
        for (const Anchor& anchor : anchors) {
          cost += anchor.weight * (std::abs(col.centre - anchor.x) +
                                   std::abs(row.centre - anchor.y));
        }
        return cost + distortion_penalty[r.a];
      };
      const auto wins = [&](double cost, std::size_t i) {
        return cost < best_cost ||
               (cost == best_cost && ScanPos{r.a, r.j, i} < incumbent);
      };
      AxisIter col = tab.xs.begin();
      const AxisIter end = tab.xs.end();
      if (v_window) {
        // One anchor: along the row the cost never rises while the column
        // centre is left of the anchor's and never falls after, so the
        // columns that can win form one window.  Start at its left edge.
        col = std::partition_point(col, end, [&](const AxisCandidate& c) {
          return c.centre < anchors[0].x &&
                 !wins(price(c), static_cast<std::size_t>(&c - tab.xs.data()));
        });
      }
      RowSkip skip;
      for (; col != end; ++col) {
        c_scanned.add();
        const auto i = static_cast<std::size_t>(col - tab.xs.begin());
        const double cost = price(*col);
        if (!wins(cost, i)) {
          if (v_window && col->centre >= anchors[0].x) break;
          continue;
        }
        if (legal_in_row(index, row, col, end, bi, skip)) {
          best_cost = cost;
          best = Rect::at(col->pos, row.pos, tab.w, tab.h);
          incumbent = {r.a, r.j, i};
        }
      }
    }
    return best;
  };

  // First-fit bottom-left scan, ignoring affinities — the dense-packing
  // fallback when affinity-driven placement fragments the free space.  The
  // pass only adds siblings, so a candidate illegal for one block stays
  // illegal for every later one: a block of the same shape and tier as an
  // earlier block resumes at that block's hit (or at the end, if it found
  // nothing).
  struct ShelfCursor {
    const ShapeTables* shape;
    tech::TierKind tier;
    ScanPos next;
  };
  std::vector<ShelfCursor> cursors;
  const auto shelf_place = [&](std::size_t bi) -> Rect {
    const SoftBlock& block = blocks[bi];
    const ShapeTables& shape = tables_for(block, bin);
    auto cursor = std::find_if(
        cursors.begin(), cursors.end(), [&](const ShelfCursor& c) {
          return c.shape == &shape && c.tier == block.tier;
        });
    if (cursor == cursors.end()) {
      cursors.push_back({&shape, block.tier, ScanPos{}});
      cursor = std::prev(cursors.end());
    }
    const OccupancyIndex& index = fp.occupancy_index(block.tier);
    ScanPos& pos = cursor->next;
    for (; pos.a < kNumAspects; ++pos.a, pos.j = 0) {
      const ShapeTables::Aspect& tab = shape.aspects[pos.a];
      for (; pos.j < tab.ys.size(); ++pos.j, pos.i = 0) {
        const AxisCandidate& row = tab.ys[pos.j];
        RowSkip skip;
        const AxisIter end = tab.xs.end();
        for (AxisIter col = tab.xs.begin() + static_cast<std::ptrdiff_t>(pos.i);
             col != end; ++col) {
          c_scanned.add();
          if (legal_in_row(index, row, col, end, bi, skip)) {
            pos.i = static_cast<std::size_t>(col - tab.xs.begin());
            return Rect::at(col->pos, row.pos, tab.w, tab.h);
          }
        }
      }
    }
    return Rect{};
  };

  const auto commit_rect = [&](std::size_t bi, const Rect& rect) {
    rects[bi] = rect;
    if (rect.valid()) buckets.insert(bi, bin_expand(rect, bin));
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
    RowSkip skip;  // single candidate; the hints are unused
    const Rect q = bin_expand(candidate, bin);
    if (!legal(fp.occupancy_index(block.tier), q, fp.bin_span(q),
               inside_die(fp, q), bi, skip)) {
      continue;
    }
    const double old_cost = block_cost(block, rects[bi], fixed);
    const double new_cost = block_cost(block, candidate, fixed);
    const double delta = new_cost - old_cost;
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      buckets.remove(bi, bin_expand(rects[bi], bin));
      buckets.insert(bi, bin_expand(candidate, bin));
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
