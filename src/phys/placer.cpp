#include "uld3d/phys/placer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <memory_resource>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

/// The bin boundaries at or below a lower edge and at or above an upper
/// edge, as integer multiples of the bin: expand_lo and expand_hi are these
/// multipliers times the bin.  Occupancy is committed at bin granularity,
/// so legality is checked on the bin-expanded footprint, or adjacent blocks
/// could collide at commit time.  The upper edge's 1e-9 slack is wider
/// than bin_span's 1e-12, so a footprint narrower than ~1e-9 bin can expand
/// to nothing at a bin edge while its commit still marks a bin:
/// Placer::place refuses such blocks up front.
double lo_multiplier(double v, double bin) { return std::floor(v / bin); }
double hi_multiplier(double v, double bin) {
  return std::ceil(v / bin - 1e-9);
}
double expand_lo(double v, double bin) { return lo_multiplier(v, bin) * bin; }
double expand_hi(double v, double bin) { return hi_multiplier(v, bin) * bin; }

/// A multiplier as a bin index clamped to [0, bins]: where an edge of the
/// bin-expanded footprint falls on a grid of `bins` bins.
std::int64_t grid_bin(double multiplier, std::int64_t bins) {
  return static_cast<std::int64_t>(
      std::clamp(multiplier, 0.0, static_cast<double>(bins)));
}

/// Expand a rectangle to the floorplan's bin boundaries.
Rect bin_expand(const Rect& rect, double bin) {
  return {expand_lo(rect.x0, bin), expand_lo(rect.y0, bin),
          expand_hi(rect.x1, bin), expand_hi(rect.y1, bin)};
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

/// The block's {width, height} at aspect candidate `a`.
std::pair<double, double> aspect_size(const SoftBlock& block, std::size_t a) {
  const double aspect = block.aspect * kAspects[a];
  return {std::sqrt(block.area_um2 * aspect),
          std::sqrt(block.area_um2 / aspect)};
}

/// One scan position along one axis, with everything the legality test and
/// the pricing need from that axis.  bin_expand, Floorplan::bin_span, the
/// die-bounds test and Rect::center each treat the two axes independently,
/// so a candidate's fields along x do not depend on its y and vice versa:
/// the per-candidate float work (divisions, floor/ceil, clamps) is done
/// once per position instead of once per (x, y) pair.
struct AxisCandidate {
  double pos = 0.0;      ///< candidate lower edge (um)
  double q0 = 0.0;       ///< bin-expanded lower edge (um)
  double q1 = 0.0;       ///< bin-expanded upper edge (um)
  double centre = 0.0;   ///< candidate centre (um), as Rect::center has it
  std::int64_t b0 = 0;   ///< bin window [b0, b1), which the tier test reads
  std::int64_t b1 = 0;
  /// The bins both quantizations put under the candidate: the bin window
  /// intersected with the multipliers of [q0, q1), which decide the
  /// sibling test, clamped to the grid.  Empty when the two do not meet.
  std::int64_t f0 = 0;
  std::int64_t f1 = 0;
  bool inside = false;   ///< bin-expanded extent within the die
};
using Axis = std::vector<AxisCandidate>;
using AxisIter = Axis::const_iterator;

/// The x (or y) positions of a scan for a block `len` long along that axis
/// on a `step` grid.  Positions accumulate with `p += step` from the die
/// origin, as the naive scan's loops do, and each field is the one axis of
/// bin_expand, Floorplan::bin_span (through axis_bins) and Rect::center on
/// Rect::at's edges p and p + len, so every candidate rectangle and window
/// is bit-identical to the naive scan's.
void build_axis(Axis& out, const Floorplan& fp, bool x_axis, double len,
                double step) {
  const double side = x_axis ? fp.width_um() : fp.height_um();
  const std::int64_t bins = x_axis ? fp.bins_x() : fp.bins_y();
  const double bin = fp.bin_um();
  out.clear();
  const double steps = (side - len) / step;  // the loop makes ~steps + 1
  if (steps >= 0.0 && steps < 1e6) {
    out.reserve(static_cast<std::size_t>(steps) + 2);
  }
  for (double p = 0.0; p + len <= side + 1e-6; p += step) {
    const double hi = p + len;
    const double m0 = lo_multiplier(p, bin);
    const double m1 = hi_multiplier(hi, bin);
    AxisCandidate c;
    c.pos = p;
    c.q0 = m0 * bin;
    c.q1 = m1 * bin;
    c.centre = (p + hi) / 2;
    std::tie(c.b0, c.b1) = fp.axis_bins(c.q0, c.q1, x_axis);
    c.f0 = std::max(c.b0, grid_bin(m0, bins));
    c.f1 = std::min(c.b1, grid_bin(m1, bins));
    c.inside = !(c.q0 < 0.0 || c.q1 > side + 1e-6);
    out.push_back(c);
  }
}

/// One axis table: the positions of a block `len` long along x (`x_axis`)
/// or y on a `step` grid.
struct AxisTable {
  bool x_axis = true;
  double len = 0.0;
  double step = 0.0;
  Axis positions;
};

/// The scan tables of one block shape on one scan step: per aspect
/// candidate, the block's width and height and its x and y axis tables,
/// which other shapes and aspects may share.
struct ShapeTables {
  double area = 0.0;
  double aspect = 0.0;
  double step = 0.0;
  struct Aspect {
    double w = 0.0;
    double h = 0.0;
    const Axis* xs = nullptr;
    const Axis* ys = nullptr;
  };
  std::array<Aspect, kNumAspects> aspects;
};

/// Columns [begin, end) of one scan row.
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
};
/// A row's runs.  Every row of a placement takes them from one arena: a row
/// holds a handful, and a heap block each was ~10% of a 32-bank
/// placement's time in the allocator.
using Runs = std::pmr::vector<Run>;

/// Remove columns [c0, c1) from `runs` (ordered, disjoint).  The head and
/// tail that survive are written over the cut runs; only a run split in two
/// inserts.
void cut_runs(Runs& runs, std::size_t c0, std::size_t c1) {
  const auto first = std::partition_point(
      runs.begin(), runs.end(), [&](const Run& r) { return r.end <= c0; });
  const auto last = std::partition_point(
      first, runs.end(), [&](const Run& r) { return r.begin < c1; });
  if (first == last) return;
  const Run head{first->begin, c0};
  const Run tail{c1, std::prev(last)->end};
  auto out = first;
  if (head.begin < head.end) *out++ = head;
  if (tail.begin < tail.end) {
    if (out == last) {
      runs.insert(out, tail);
      return;
    }
    *out++ = tail;
  }
  runs.erase(out, last);
}

/// The legal candidates of one shape's scan tables on one tier, built a
/// row at a time on first use.  A built row lists, in column order, the
/// maximal runs of columns i whose candidate (a, j, i) lies inside the die,
/// is clear on the tier and overlaps none of the first `seen` committed
/// siblings.  Extents never decrease along an axis table, so the columns
/// and rows inside the die are prefixes; only those rows are kept.
struct RunTable {
  static constexpr std::size_t kUnbuilt =
      std::numeric_limits<std::size_t>::max();
  struct Row {
    Runs runs;
    std::size_t seen = kUnbuilt;
  };
  /// Columns [i0, i1) of one aspect that a committed sibling overlaps;
  /// i0 > i1 until some row first needs them.
  struct Reach {
    std::size_t i0 = 1;
    std::size_t i1 = 0;
  };
  const ShapeTables* shape = nullptr;
  tech::TierKind tier{};
  const OccupancySnapshot* occupancy = nullptr;  ///< the tier's snapshot
  /// For a table made after siblings were committed: the tier's free bins
  /// less every committed sibling's, kept current at each commit, which
  /// proves rows empty before they are built.
  std::optional<FreeBinMap> free_bins;
  /// Per aspect, the proof's columns: the narrowest window [f0, f1) of the
  /// in-die columns (0, which proves nothing, when one is empty), and a bit
  /// at each one's f0.
  std::array<std::int64_t, kNumAspects> narrowest{};
  std::array<std::vector<std::uint64_t>, kNumAspects> starts;
  std::array<std::size_t, kNumAspects> inside_cols{};
  std::array<std::vector<Row>, kNumAspects> rows;
  /// Per aspect, rows.size() + 1 links: row j's is j while the row may
  /// hold a run and j + 1 once it is known to hold none, and the last is
  /// the end.  Runs only shrink, so a row known empty stays empty.
  std::array<std::vector<std::size_t>, kNumAspects> next_live;
  /// Per aspect, the reach of the committed siblings in commit order.
  std::array<std::vector<Reach>, kNumAspects> reach;

  /// The first row of aspect `a` at or after `j` not known to be empty
  /// (rows.size() when none is left), compressing the links it follows.
  std::size_t live_row(std::size_t a, std::size_t j) {
    std::vector<std::size_t>& next = next_live[a];
    std::size_t live = j;
    while (next[live] != live) live = next[live];
    while (j != live) j = std::exchange(next[j], live);
    return live;
  }
};

/// The candidates of `axis` whose extent overlaps [lo, hi) as
/// Rect::overlaps has it: one range, because the extents never decrease.
std::pair<std::size_t, std::size_t> overlapping(const Axis& axis, double lo,
                                                double hi) {
  const auto first =
      std::partition_point(axis.begin(), axis.end(),
                           [&](const AxisCandidate& c) { return !(lo < c.q1); });
  const auto last = std::partition_point(
      first, axis.end(), [&](const AxisCandidate& c) { return c.q0 < hi; });
  return {static_cast<std::size_t>(first - axis.begin()),
          static_cast<std::size_t>(last - axis.begin())};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

PlacementResult Placer::place(Floorplan& fp,
                              const std::vector<SoftBlock>& blocks,
                              Rng& rng) const {
  PlacementResult result;
  const auto& fixed = fp.macros();
  const double bin = fp.bin_um();
  for (const auto& block : blocks) {
    expects(block.area_um2 > 0.0,
            "soft block area must be positive: " + block.name);
    for (const auto& [index, weight] : block.affinities) {
      expects(index < fixed.size(),
              "affinity index " + std::to_string(index) +
                  " out of range (fixed macros: " +
                  std::to_string(fixed.size()) + ") for block: " + block.name);
    }
    // A footprint that expands to no bin would pass every legality test
    // and still mark a bin at commit (expand_hi).
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const auto [w, h] = aspect_size(block, a);
      if (!bin_expand(Rect::at(0.0, 0.0, w, h), bin).valid()) {
        expects(false, "soft block too small for the bin grid: " + block.name);
      }
    }
  }

  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& c_scanned = registry.counter("phys.placer.candidates_scanned");
  Counter& c_skipped = registry.counter("phys.placer.candidates_skipped");
  Counter& c_legal = registry.counter("phys.placer.legal_checks");

  // Constructive pass: biggest blocks first, best legal candidate position.
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].area_um2 > blocks[b].area_um2;
  });

  std::vector<Rect> rects(blocks.size());  // invalid until placed
  const double step = options_.grid_step_um;

  // Axis tables, built once per (axis, length, scan step) on first use.  On
  // a square die the two axes have the same side and bin count, so x and y
  // share them: aspect 1's two tables are one, and so are aspect 2's x and
  // aspect 0.5's y table (A * 0.5 and A / 2 are the same double).  A deque
  // keeps references stable.
  std::deque<AxisTable> axes;
  const bool square = same_bits(fp.width_um(), fp.height_um());
  const auto axis_for = [&](bool x_axis, double len,
                            double scan_step) -> const Axis& {
    x_axis = x_axis || square;
    for (const AxisTable& t : axes) {
      if (t.x_axis == x_axis && same_bits(t.len, len) &&
          same_bits(t.step, scan_step)) {
        return t.positions;
      }
    }
    AxisTable& t = axes.emplace_back();
    t.x_axis = x_axis;
    t.len = len;
    t.step = scan_step;
    build_axis(t.positions, fp, x_axis, len, scan_step);
    return t.positions;
  };

  // Scan tables, built once per (shape, scan step) on first use: a
  // design's blocks share a few shapes.
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
      std::tie(tab.w, tab.h) = aspect_size(block, a);
      tab.xs = &axis_for(/*x_axis=*/true, tab.w, scan_step);
      tab.ys = &axis_for(/*x_axis=*/false, tab.h, scan_step);
    }
    return t;
  };

  // Nothing is marked in the floorplan until the commit at the end, so each
  // tier placed on is snapshotted once, at first use, and every tier query
  // of the placement runs against the snapshot.
  std::deque<std::pair<tech::TierKind, OccupancySnapshot>> snapshots;
  const auto snapshot_for =
      [&](tech::TierKind tier) -> const OccupancySnapshot& {
    for (const auto& [kind, snapshot] : snapshots) {
      if (kind == tier) return snapshot;
    }
    return snapshots
        .emplace_back(tier, OccupancySnapshot(fp.occupancy_index(tier)))
        .second;
  };

  // Legal-run tables, one per (scan tables, tier), built a row at a time on
  // first use; a row catches up with the siblings committed since its last
  // use when it is used again.  The constructive and shelf passes test
  // legality through them alone, and a row's tier runs never change.
  std::pmr::monotonic_buffer_resource arena;  // outlives the tables' rows
  std::vector<RunTable> run_tables;
  std::vector<Rect> committed;          // bin-expanded, in commit order
  std::vector<BinSpan> committed_bins;  // their multipliers, on the grid
  const auto runs_for = [&](const ShapeTables& shape,
                            tech::TierKind tier) -> RunTable& {
    for (RunTable& t : run_tables) {
      if (t.shape == &shape && t.tier == tier) return t;
    }
    RunTable& t = run_tables.emplace_back();
    t.shape = &shape;
    t.tier = tier;
    t.occupancy = &snapshot_for(tier);
    const auto inside = [](const AxisCandidate& c) { return c.inside; };
    // The shortest and tallest non-empty row windows of the proof.
    std::int64_t min_rows = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_rows = 0;
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const Axis& xs = *shape.aspects[a].xs;
      const Axis& ys = *shape.aspects[a].ys;
      t.inside_cols[a] = static_cast<std::size_t>(
          std::partition_point(xs.begin(), xs.end(), inside) - xs.begin());
      const auto n_rows = static_cast<std::size_t>(
          std::partition_point(ys.begin(), ys.end(), inside) - ys.begin());
      t.rows[a].reserve(n_rows);
      for (std::size_t j = 0; j < n_rows; ++j) {
        t.rows[a].push_back({Runs(&arena), RunTable::kUnbuilt});
        if (ys[j].f0 < ys[j].f1) {
          min_rows = std::min(min_rows, ys[j].f1 - ys[j].f0);
          max_rows = std::max(max_rows, ys[j].f1 - ys[j].f0);
        }
      }
      t.next_live[a].resize(n_rows + 1);
      std::iota(t.next_live[a].begin(), t.next_live[a].end(), std::size_t{0});
    }
    if (committed.empty() || max_rows == 0) return t;
    t.free_bins.emplace(*t.occupancy, committed_bins, min_rows, max_rows);
    const auto words = static_cast<std::size_t>((fp.bins_x() + 63) / 64);
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const Axis& xs = *shape.aspects[a].xs;
      std::int64_t& narrowest = t.narrowest[a];
      narrowest = std::numeric_limits<std::int64_t>::max();
      t.starts[a].assign(words, 0);
      for (std::size_t i = 0; i < t.inside_cols[a]; ++i) {
        narrowest = std::min(narrowest, xs[i].f1 - xs[i].f0);
        if (xs[i].f0 < xs[i].f1) {
          t.starts[a][static_cast<std::size_t>(xs[i].f0 / 64)] |=
              std::uint64_t{1} << (xs[i].f0 % 64);
        }
      }
      if (t.inside_cols[a] == 0 || narrowest < 0) narrowest = 0;  // no proof
    }
    return t;
  };
  std::vector<std::uint64_t> band;  // the row being built's folded bins
  const auto legal_runs = [&](RunTable& t, std::size_t a,
                              std::size_t j) -> const Runs& {
    const Axis& xs = *t.shape->aspects[a].xs;
    const AxisCandidate& row = (*t.shape->aspects[a].ys)[j];
    RunTable::Row& r = t.rows[a][j];
    if (r.seen == RunTable::kUnbuilt) {
      // A legal column's window [f0, f1) along x, over the row's [f0, f1)
      // along y, is free on the tier and of every sibling, so a row in
      // which no column starts a window of the narrowest width that the
      // map holds free would be empty once built and caught up: it is dead
      // unbuilt.
      if (t.free_bins && t.narrowest[a] > 0 && row.f0 < row.f1 &&
          !t.free_bins->any_window_free(row.f0, row.f1, t.narrowest[a],
                                        t.starts[a], band)) {
        r.seen = committed.size();
        t.next_live[a][j] = j + 1;
        return r.runs;
      }
      // Every candidate of the row covers the row's bins along y, so one
      // folded band of them decides each column's window along x.
      const OccupancySnapshot& occupancy = *t.occupancy;
      occupancy.band(row.b0, row.b1, band);
      const AxisIter cols = xs.begin();
      const AxisIter cols_end =
          cols + static_cast<std::ptrdiff_t>(t.inside_cols[a]);
      for (AxisIter col = cols; col != cols_end;) {
        c_scanned.add();
        c_legal.add();
        const std::int64_t next = occupancy.next_occupied(band, col->b0);
        AxisIter stop;
        if (next < col->b1) {
          // Blocked.  Every later window that starts at or before the last
          // occupied bin of this one still holds that bin.
          const std::int64_t last =
              occupancy.last_occupied_below(band, col->b1);
          stop = std::partition_point(
              col + 1, cols_end,
              [&](const AxisCandidate& c) { return c.b0 <= last; });
        } else {
          // Clear, as is every later window that ends by `next`: it lies
          // inside [col->b0, next).
          stop = std::partition_point(
              col + 1, cols_end,
              [&](const AxisCandidate& c) { return c.b1 <= next; });
          const auto begin = static_cast<std::size_t>(col - cols);
          const auto end = static_cast<std::size_t>(stop - cols);
          if (!r.runs.empty() && r.runs.back().end == begin) {
            r.runs.back().end = end;
          } else {
            r.runs.push_back({begin, end});
          }
        }
        c_skipped.add(static_cast<std::uint64_t>(stop - col - 1));
        col = stop;
      }
      r.seen = 0;
    }
    // Rect::overlaps tests each axis on its own: a sibling whose extent
    // along y overlaps the row's removes one range of columns from it, the
    // same for every row it reaches.
    const std::size_t n_committed = committed.size();
    std::vector<RunTable::Reach>& reach = t.reach[a];
    if (reach.size() < n_committed) reach.resize(n_committed);
    for (; r.seen < n_committed && !r.runs.empty(); ++r.seen) {
      const Rect& q = committed[r.seen];
      if (!(q.y0 < row.q1 && row.q0 < q.y1)) continue;
      RunTable::Reach& sibling = reach[r.seen];
      if (sibling.i0 > sibling.i1) {
        std::tie(sibling.i0, sibling.i1) = overlapping(xs, q.x0, q.x1);
      }
      cut_runs(r.runs, sibling.i0, sibling.i1);
    }
    if (r.runs.empty()) t.next_live[a][j] = j + 1;
    return r.runs;
  };

  // Best legal (position, shape) by anchor HPWL plus distortion penalty:
  // the least cost, and among equal costs the first in scan order.  Every
  // row gets a lower bound on the costs in it, and rows whose bound cannot
  // beat the best found are never built (DESIGN.md §12 has the exactness
  // argument).
  struct Anchor {
    double weight;
    double x;
    double y;
  };
  std::vector<Anchor> anchors;
  const auto try_place = [&](std::size_t bi, double scan_step,
                             double penalty_weight) -> Rect {
    const SoftBlock& block = blocks[bi];
    const ShapeTables& shape = tables_for(block, scan_step);
    RunTable& legal = runs_for(shape, block.tier);
    double distortion_penalty[kNumAspects];
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      distortion_penalty[a] =
          penalty_weight * fp.width_um() * std::abs(std::log(kAspects[a]));
    }
    // The bounds hold for finite, non-negative weights and finite anchors;
    // anything else falls back to the plain scan order.
    anchors.clear();
    bool bounded = true;
    for (const auto& [k, weight] : block.affinities) {
      const Point c = fixed[k].rect.center();
      anchors.push_back({weight, c.x, c.y});
      bounded = bounded && std::isfinite(weight) && weight >= 0.0 &&
                std::isfinite(c.x) && std::isfinite(c.y);
    }
    const auto price = [&](const AxisCandidate& col, const AxisCandidate& row,
                           std::size_t a) {
      double cost = 0.0;
      for (const Anchor& anchor : anchors) {
        cost += anchor.weight * (std::abs(col.centre - anchor.x) +
                                 std::abs(row.centre - anchor.y));
      }
      return cost + distortion_penalty[a];
    };
    // The row's cheapest legal candidate, first of equals, as
    // {price, column}, for a block with at most one anchor: the price is
    // NaN when the row has no candidate that is not NaN.  Along a row the
    // cost never rises while the column centre is left of the anchor's and
    // never falls after, so the candidate is the legal column nearest the
    // anchor on one side or the other.  NaN prices (coordinates near the
    // end of the double range, zero weight) never win and lie only far from
    // the anchor, so a side whose nearest legal column prices NaN has
    // nothing to offer.
    const auto cheapest = [&](const Runs& runs, std::size_t a,
                              const AxisCandidate& row, std::size_t split)
        -> std::pair<double, std::size_t> {
      const Axis& xs = *shape.aspects[a].xs;
      const auto cost_at = [&](std::size_t i) {
        c_scanned.add();
        return price(xs[i], row, a);
      };
      const auto right =
          std::partition_point(runs.begin(), runs.end(),
                               [&](const Run& r) { return r.end <= split; });
      std::pair<double, std::size_t> best{
          std::numeric_limits<double>::quiet_NaN(), 0};
      if (right != runs.end()) {
        best.second = std::max(right->begin, split);
        best.first = cost_at(best.second);
      }
      const auto left = right != runs.end() && right->begin < split ? right
                        : right != runs.begin() ? std::prev(right)
                                                : runs.end();
      if (left == runs.end()) return best;
      std::size_t i = std::min(left->end, split) - 1;
      const double cost = cost_at(i);
      if (std::isnan(cost) || cost > best.first) return best;
      // Left of the anchor the first legal column of this price wins: the
      // previous legal column tells whether that is this one, and
      // otherwise a binary search finds it.
      const bool run_start = i == left->begin;
      if ((!run_start || left != runs.begin()) &&
          cost_at(run_start ? std::prev(left)->end - 1 : i - 1) <= cost) {
        const auto first = static_cast<std::size_t>(
            std::partition_point(
                xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(i),
                [&](const AxisCandidate& c) {
                  return !(price(c, row, a) <= cost);
                }) -
            xs.begin());
        const auto run =
            std::partition_point(runs.begin(), runs.end(),
                                 [&](const Run& r) { return r.end <= first; });
        i = std::max(run->begin, first);
      }
      return {cost, i};
    };

    // Each term w * (|dx| + |dy|) rounds to at least w * |dy|, and rounding
    // keeps the sums in order, so no candidate of the row costs less.  -inf
    // bounds every cost, NaN included.
    const auto row_bound = [&](std::size_t a, const AxisCandidate& row) {
      constexpr double kNoBound = -std::numeric_limits<double>::infinity();
      if (!bounded) return kNoBound;
      double bound = 0.0;
      for (const Anchor& anchor : anchors) {
        bound += anchor.weight * std::abs(row.centre - anchor.y);
      }
      bound += distortion_penalty[a];
      return std::isnan(bound) ? kNoBound : bound;
    };
    // Rows go in scan order and only a strictly cheaper candidate replaces
    // the best, which keeps the first of equals.  A row whose bound is not
    // below the best price so far holds nothing cheaper and, coming later,
    // loses every tie: it is skipped unbuilt.  With at most one anchor a
    // row's cheapest legal candidate is found without pricing the row;
    // otherwise every legal column is priced.
    const bool one_anchor = bounded && anchors.size() <= 1;
    // With no anchor every row's bound is the penalty, and with one of
    // positive weight it never rises while the row's centre is below the
    // anchor's and never falls after: the rows worth visiting start at the
    // first whose bound is below the best so far and end at the first one
    // at or above the anchor whose bound is not.  (A zero weight can make a
    // far row's bound NaN, which the per-row test alone handles.)
    const bool ranged =
        one_anchor && (anchors.empty() || anchors[0].weight > 0.0);
    double best_cost = std::numeric_limits<double>::infinity();
    Rect best{};
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const ShapeTables::Aspect& tab = shape.aspects[a];
      const Axis& xs = *tab.xs;
      const Axis& ys = *tab.ys;
      const std::size_t n_rows = legal.rows[a].size();
      const auto rows_end = ys.begin() + static_cast<std::ptrdiff_t>(n_rows);
      // Columns before `split` lie left of the anchor; rows from `rising`
      // on lie at or above it.
      std::size_t split = 0;
      std::size_t rising = 0;
      std::size_t first = 0;
      if (one_anchor && !anchors.empty()) {
        split = static_cast<std::size_t>(
            std::partition_point(xs.begin(), xs.end(),
                                 [&](const AxisCandidate& c) {
                                   return c.centre < anchors[0].x;
                                 }) -
            xs.begin());
      }
      if (ranged && !anchors.empty()) {
        const auto above = std::partition_point(
            ys.begin(), rows_end,
            [&](const AxisCandidate& r) { return r.centre < anchors[0].y; });
        rising = static_cast<std::size_t>(above - ys.begin());
        first = static_cast<std::size_t>(
            std::partition_point(ys.begin(), above,
                                 [&](const AxisCandidate& r) {
                                   return row_bound(a, r) >= best_cost;
                                 }) -
            ys.begin());
      }
      for (std::size_t j = legal.live_row(a, first); j < n_rows;
           j = legal.live_row(a, j + 1)) {
        const AxisCandidate& row = ys[j];
        if (row_bound(a, row) >= best_cost) {
          if (ranged && j >= rising) break;
          continue;
        }
        const Runs& runs = legal_runs(legal, a, j);
        if (runs.empty()) continue;
        if (one_anchor) {
          const auto [cost, i] = cheapest(runs, a, row, split);
          if (cost < best_cost) {
            best_cost = cost;
            best = Rect::at(xs[i].pos, row.pos, tab.w, tab.h);
          }
          continue;
        }
        for (const Run& run : runs) {
          for (std::size_t i = run.begin; i < run.end; ++i) {
            c_scanned.add();
            const double cost = price(xs[i], row, a);
            if (cost < best_cost) {
              best_cost = cost;
              best = Rect::at(xs[i].pos, row.pos, tab.w, tab.h);
            }
          }
        }
      }
    }
    return best;
  };

  // First-fit bottom-left scan, ignoring affinities — the dense-packing
  // fallback when affinity-driven placement fragments the free space: the
  // first legal candidate in scan order.
  const auto shelf_place = [&](std::size_t bi) -> Rect {
    const SoftBlock& block = blocks[bi];
    const ShapeTables& shape = tables_for(block, bin);
    RunTable& legal = runs_for(shape, block.tier);
    for (std::size_t a = 0; a < kNumAspects; ++a) {
      const ShapeTables::Aspect& tab = shape.aspects[a];
      const std::size_t n_rows = legal.rows[a].size();
      for (std::size_t j = legal.live_row(a, 0); j < n_rows;
           j = legal.live_row(a, j + 1)) {
        const Runs& runs = legal_runs(legal, a, j);
        if (runs.empty()) continue;
        c_scanned.add();
        return Rect::at((*tab.xs)[runs.front().begin].pos, (*tab.ys)[j].pos,
                        tab.w, tab.h);
      }
    }
    return Rect{};
  };

  const auto commit_rect = [&](std::size_t bi, const Rect& rect) {
    rects[bi] = rect;
    if (!rect.valid()) return;
    committed.push_back(bin_expand(rect, bin));
    const BinSpan& sibling = committed_bins.emplace_back(
        BinSpan{grid_bin(lo_multiplier(rect.x0, bin), fp.bins_x()),
                grid_bin(lo_multiplier(rect.y0, bin), fp.bins_y()),
                grid_bin(hi_multiplier(rect.x1, bin), fp.bins_x()),
                grid_bin(hi_multiplier(rect.y1, bin), fp.bins_y())});
    for (RunTable& t : run_tables) {
      if (t.free_bins) t.free_bins->block(sibling);
    }
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
    committed.clear();
    committed_bins.clear();
    run_tables.clear();
    for (const std::size_t bi : order) {
      commit_rect(bi, shelf_place(bi));
      if (!rects[bi].valid()) result.unplaced.push_back(blocks[bi].name);
    }
  }

  // Annealing refinement: random relocations, accept downhill (or uphill
  // with Boltzmann probability).  A move relocates a block, so legality
  // comes from the tier and the bin-expanded rects of the other blocks.
  RectBuckets buckets(fp.width_um(), fp.height_um(),
                      std::max<std::size_t>(blocks.size(), 1));
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (rects[bi].valid()) buckets.insert(bi, bin_expand(rects[bi], bin));
  }
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
    const Rect q = bin_expand(candidate, bin);
    if (!inside_die(fp, q)) continue;
    c_legal.add();
    const BinSpan span = fp.bin_span(q);
    if (!snapshot_for(block.tier).rect_clear(span.x0, span.y0, span.x1,
                                             span.y1) ||
        buckets.overlaps_any(q, bi)) {
      continue;
    }
    const double old_cost = block_cost(block, rects[bi], fixed);
    const double new_cost = block_cost(block, candidate, fixed);
    const double delta = new_cost - old_cost;
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      buckets.remove(bi, bin_expand(rects[bi], bin));
      buckets.insert(bi, q);
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
