#include "naive_placement.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

namespace uld3d::phys::reference {
namespace {

constexpr double kAspects[] = {1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 4.0, 0.25};
constexpr std::size_t kNumAspects = std::size(kAspects);

double block_cost(const SoftBlock& block, const Rect& rect,
                  const std::vector<PlacedMacro>& fixed) {
  double cost = 0.0;
  for (const auto& [index, weight] : block.affinities) {
    cost += weight * center_distance(rect, fixed[index].rect);
  }
  return cost;
}

Rect bin_expand(const Rect& rect, double bin) {
  return {std::floor(rect.x0 / bin) * bin, std::floor(rect.y0 / bin) * bin,
          std::ceil(rect.x1 / bin - 1e-9) * bin,
          std::ceil(rect.y1 / bin - 1e-9) * bin};
}

/// Inside the die, free of fixed blockages, disjoint from every placed
/// sibling — all on the bin-expanded footprint.
bool legal(const Floorplan& fp, const SoftBlock& block, const Rect& rect,
           const std::vector<Rect>& placed, std::size_t self) {
  const Rect q = bin_expand(rect, fp.bin_um());
  if (q.x0 < 0.0 || q.y0 < 0.0 || q.x1 > fp.width_um() + 1e-6 ||
      q.y1 > fp.height_um() + 1e-6) {
    return false;
  }
  if (!fp.region_free(block.tier, q)) return false;
  for (std::size_t i = 0; i < placed.size(); ++i) {
    if (i == self || !placed[i].valid()) continue;
    if (bin_expand(placed[i], fp.bin_um()).overlaps(q)) return false;
  }
  return true;
}

/// Every legal candidate of block `self` in scan order — aspects in
/// kAspects order, rows bottom-up, columns left to right, on a `step` grid
/// — until on_legal(rect, aspect index) returns true.
template <typename OnLegal>
void scan(const Floorplan& fp, const std::vector<SoftBlock>& blocks,
          std::size_t self, const std::vector<Rect>& placed, double step,
          OnLegal&& on_legal) {
  const SoftBlock& block = blocks[self];
  for (std::size_t a = 0; a < kNumAspects; ++a) {
    const double aspect = block.aspect * kAspects[a];
    const double w = std::sqrt(block.area_um2 * aspect);
    const double h = std::sqrt(block.area_um2 / aspect);
    for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += step) {
      for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += step) {
        const Rect rect = Rect::at(x, y, w, h);
        if (legal(fp, block, rect, placed, self) && on_legal(rect, a)) return;
      }
    }
  }
}

}  // namespace

std::optional<Rect> naive_place_macro_anywhere(Floorplan& fp,
                                               const Macro& macro) {
  for (std::int64_t by = 0; by < fp.bins_y(); ++by) {
    for (std::int64_t bx = 0; bx < fp.bins_x(); ++bx) {
      const double x = static_cast<double>(bx) * fp.bin_um();
      const double y = static_cast<double>(by) * fp.bin_um();
      if (fp.place_macro(macro, x, y)) {
        return Rect::at(x, y, macro.width_um, macro.height_um);
      }
    }
  }
  return std::nullopt;
}

PlacementResult naive_place(const PlacerOptions& options, Floorplan& fp,
                            const std::vector<SoftBlock>& blocks, Rng& rng,
                            NaivePlaceTrace* trace) {
  NaivePlaceTrace taken;
  PlacementResult result;
  const auto& fixed = fp.macros();
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].area_um2 > blocks[b].area_um2;
  });
  std::vector<Rect> rects(blocks.size());
  const double step = options.grid_step_um;

  const auto try_place = [&](std::size_t bi, double scan_step,
                             double penalty_weight) {
    double best_cost = std::numeric_limits<double>::infinity();
    Rect best{};
    scan(fp, blocks, bi, rects, scan_step,
         [&](const Rect& rect, std::size_t a) {
           const double cost =
               block_cost(blocks[bi], rect, fixed) +
               penalty_weight * fp.width_um() * std::abs(std::log(kAspects[a]));
           if (cost < best_cost) {
             best_cost = cost;
             best = rect;
           }
           return false;
         });
    return best;
  };

  bool constructive_failed = false;
  for (const std::size_t bi : order) {
    Rect best = try_place(bi, step, 0.02);
    if (!best.valid()) {
      taken.second_chance_after_commit =
          taken.second_chance_after_commit || bi != order.front();
      best = try_place(bi, step / 2.0, 0.0);
    }
    if (!best.valid()) {
      constructive_failed = true;
      break;
    }
    rects[bi] = best;
  }
  taken.shelf_fallback = constructive_failed;
  if (trace != nullptr) *trace = taken;

  if (constructive_failed) {
    std::fill(rects.begin(), rects.end(), Rect{});
    for (const std::size_t bi : order) {
      scan(fp, blocks, bi, rects, fp.bin_um(),
           [&](const Rect& rect, std::size_t) {
             rects[bi] = rect;
             return true;
           });
      if (!rects[bi].valid()) result.unplaced.push_back(blocks[bi].name);
    }
  }

  double temperature = options.initial_temperature;
  const std::int64_t cols = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(fp.width_um() / step));
  const std::int64_t rows = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(fp.height_um() / step));
  for (int move = 0; move < options.anneal_moves && !blocks.empty(); ++move) {
    const std::size_t bi = static_cast<std::size_t>(rng.below(blocks.size()));
    if (!rects[bi].valid()) continue;
    const double x =
        static_cast<double>(rng.below(static_cast<std::uint64_t>(cols))) * step;
    const double y =
        static_cast<double>(rng.below(static_cast<std::uint64_t>(rows))) * step;
    const Rect candidate =
        Rect::at(x, y, rects[bi].width(), rects[bi].height());
    if (!legal(fp, blocks[bi], candidate, rects, bi)) continue;
    const double delta = block_cost(blocks[bi], candidate, fixed) -
                         block_cost(blocks[bi], rects[bi], fixed);
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      rects[bi] = candidate;
    }
    temperature *= options.cooling;
  }

  result.success = result.unplaced.empty();
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (!rects[bi].valid()) continue;
    fp.allocate_region(blocks[bi].tier, rects[bi]);
    Macro m;
    m.name = blocks[bi].name;
    m.kind = MacroKind::kSramBuffer;
    m.width_um = rects[bi].width();
    m.height_um = rects[bi].height();
    result.blocks.push_back({m, rects[bi]});
    result.source_index.push_back(bi);
    result.total_hpwl_um += block_cost(blocks[bi], rects[bi], fixed);
  }
  return result;
}

}  // namespace uld3d::phys::reference
