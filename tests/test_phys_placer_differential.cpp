// Differential suite for Placer::place.  The best-first constructive
// search, the legal-run tables, the shared scan tables and the anneal's
// sibling buckets may only skip work that cannot change the result, so
// every placement must equal the naive oracle's
// (tests/reference/naive_placement) bit for bit: every PlacementResult
// field, the occupancy it commits and the RNG's next draw.  Generated
// cases cover the search's corners; the flow's own designs pin the
// end-to-end contract.
#include "uld3d/phys/placer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "reference/naive_placement.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/units.hpp"

namespace uld3d::phys {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rect(const Rect& a, const Rect& b) {
  return same_bits(a.x0, b.x0) && same_bits(a.y0, b.y0) &&
         same_bits(a.x1, b.x1) && same_bits(a.y1, b.y1);
}

/// Every field of two placement results, bit for bit; the message names
/// the first difference.
::testing::AssertionResult same_placement(const PlacementResult& a,
                                          const PlacementResult& b) {
  if (a.success != b.success) {
    return ::testing::AssertionFailure() << "success";
  }
  if (a.unplaced != b.unplaced) {
    return ::testing::AssertionFailure() << "unplaced";
  }
  if (a.source_index != b.source_index) {
    return ::testing::AssertionFailure() << "source_index";
  }
  if (!same_bits(a.total_hpwl_um, b.total_hpwl_um)) {
    return ::testing::AssertionFailure()
           << "total_hpwl_um " << a.total_hpwl_um << " vs " << b.total_hpwl_um;
  }
  if (a.blocks.size() != b.blocks.size()) {
    return ::testing::AssertionFailure() << "block count";
  }
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const PlacedMacro& p = a.blocks[i];
    const PlacedMacro& q = b.blocks[i];
    if (p.macro.name != q.macro.name || p.macro.kind != q.macro.kind ||
        !same_bits(p.macro.width_um, q.macro.width_um) ||
        !same_bits(p.macro.height_um, q.macro.height_um) ||
        p.macro.blocks_si != q.macro.blocks_si ||
        p.macro.blocks_rram != q.macro.blocks_rram ||
        p.macro.blocks_cnfet != q.macro.blocks_cnfet ||
        !same_rect(p.rect, q.rect)) {
      return ::testing::AssertionFailure()
             << "block " << i << " (" << p.macro.name << ") at (" << p.rect.x0
             << ", " << p.rect.y0 << ") vs (" << q.rect.x0 << ", "
             << q.rect.y0 << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_occupancy(const Floorplan& a,
                                          const Floorplan& b) {
  for (const auto tier : {tech::TierKind::kSiCmosFeol, tech::TierKind::kRram,
                          tech::TierKind::kCnfetFeol}) {
    if (!same_bits(a.utilization(tier), b.utilization(tier))) {
      return ::testing::AssertionFailure()
             << "utilization of tier " << tech::to_string(tier);
    }
  }
  return ::testing::AssertionSuccess();
}

struct PlacerCase {
  Floorplan fp;
  std::vector<SoftBlock> blocks;
  PlacerOptions options;
  std::uint64_t seed = 0;
  bool symmetric = false;
};

Macro random_macro(Rng& g, const std::string& name, double area, bool m3d) {
  switch (g.below(3)) {
    case 0:
      return m3d ? Macro::rram_array_m3d(name, area)
                 : Macro::rram_array_2d(name, area);
    case 1:
      return Macro::rram_periph(name, area);
    default:
      return Macro::rram_array_2d(name, area, 0.5 + g.uniform());
  }
}

/// Bin sizes.  50 and 100 um divide every multiple of themselves back to
/// the integer they came from; 33.3 and 47.1 um do not for a few
/// multipliers m below 400 (33.3 um: 63, 126, 247 and 252; 47.1 um: 17 of
/// them), where the bin window of the bin-expanded footprint (m * bin /
/// bin, floored or ceiled) is one bin wider than the multiplier that
/// decides the sibling test.
constexpr double kBins[] = {50.0, 100.0, 33.3, 47.1};

bool inexact_bin(double bin) { return bin != 50.0 && bin != 100.0; }

/// One generated case.  A third are "symmetric": a square die on the scan
/// grid, integer-sided blocks and anchors at the die centre and mirrored
/// about its vertical centre line, so that candidates of exactly equal cost
/// exist in different columns, rows and (transposed) aspects and the
/// first-of-equals tie-break decides.  The rest draw every size freely.
/// Fills run up to 95% of the free Si area, so the constructive pass often
/// fails and the shelf fallback runs; a few shapes are drawn per case, so
/// shapes repeat and later blocks reuse run rows that earlier blocks cut.
PlacerCase random_case(Rng& g) {
  const bool symmetric = g.below(3) == 0;
  const bool m3d = g.below(2) == 0;
  const double bin = kBins[g.below(std::size(kBins))];
  double w = 0.0;
  double h = 0.0;
  // Small dies and few blocks are drawn more often than large ones: the
  // oracle's cost grows with the die area and the square of the block count.
  const auto side_um = [&] {
    const double u = g.uniform();
    return 1500.0 + 6000.0 * u * u;
  };
  if (symmetric) {
    w = h = 200.0 * static_cast<double>(8 + g.below(1 + g.below(30)));
  } else {
    w = side_um();
    h = g.below(3) == 0 ? w : side_um();
  }
  PlacerCase c{Floorplan(w, h,
                         m3d ? tech::TierStack::make_m3d_130nm()
                             : tech::TierStack::make_2d_baseline_130nm(),
                         bin),
               {}, {}, 0, symmetric};
  const int n_macros = 1 + static_cast<int>(g.below(6));
  const double pair_side = 200.0 * static_cast<double>(1 + g.below(4));
  const auto pair_rows = static_cast<std::uint64_t>((h - pair_side) / 200.0);
  const double pair_y = 200.0 * static_cast<double>(g.below(pair_rows + 1));
  for (int k = 0; k < n_macros; ++k) {
    Macro m = random_macro(g, std::string("m").append(std::to_string(k)),
                           w * h * (0.004 + 0.05 * g.uniform()), m3d);
    if (symmetric && k < 3) {
      const double side =
          k == 0 ? 200.0 * static_cast<double>(1 + g.below(4)) : pair_side;
      m.width_um = m.height_um = side;
      if (k == 0) {
        c.fp.place_macro(m, (w - side) / 2.0, (h - side) / 2.0);
      } else {
        c.fp.place_macro(m, k == 1 ? 0.0 : w - side, pair_y);
      }
    } else if (g.below(2) == 0) {
      c.fp.place_macro_anywhere(m);
    } else {
      c.fp.place_macro(m, g.uniform() * w * 0.9, g.uniform() * h * 0.9);
    }
  }
  const std::size_t n_fixed = c.fp.macros().size();
  const std::size_t n_blocks = 1 + g.below(1 + g.below(24));
  const double fill = 0.05 + 0.9 * g.uniform();
  const double mean_area = fill *
                           c.fp.free_area_um2(tech::TierKind::kSiCmosFeol) /
                           static_cast<double>(n_blocks);
  struct Shape {
    double area;
    double aspect;
    tech::TierKind tier;
  };
  std::vector<Shape> shapes(1 + g.below(4));
  for (Shape& s : shapes) {
    if (symmetric) {
      const double side =
          100.0 * std::max(1.0, std::round(std::sqrt(mean_area) / 100.0 *
                                           (0.6 + 0.8 * g.uniform())));
      s.area = side * side;
      s.aspect = 1.0;
    } else {
      constexpr double kAspect[] = {1.0, 1.0, 0.5, 2.0, 1.7, 0.8};
      s.area = std::max(1.0e4, mean_area * (0.4 + 1.2 * g.uniform()));
      s.aspect = kAspect[g.below(6)];
    }
    s.tier = g.below(8) == 0 ? tech::TierKind::kCnfetFeol
                             : tech::TierKind::kSiCmosFeol;
  }
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const Shape& s = shapes[g.below(shapes.size())];
    SoftBlock block;
    block.name = std::string("b").append(std::to_string(b));
    block.area_um2 = s.area;
    block.aspect = s.aspect;
    block.tier = s.tier;
    const std::size_t n_affinities = n_fixed == 0 ? 0 : g.below(4);
    for (std::size_t k = 0; k < n_affinities; ++k) {
      // Weights 0, 0.5 and 1, and now and then a negative one, which turns
      // the bound and the V-window off.
      constexpr double kWeight[] = {0.0, 0.5, 1.0, 1.0, 0.5, 1.0};
      double weight = kWeight[g.below(6)];
      if (g.below(40) == 0) weight = g.below(2) == 0 ? -0.5 : -1.0;
      std::size_t index = static_cast<std::size_t>(g.below(n_fixed));
      if (symmetric && k == 0) {
        index = std::min<std::size_t>(n_fixed - 1, g.below(3));
      }
      block.affinities.emplace_back(index, weight);
    }
    c.blocks.push_back(block);
  }
  c.options.grid_step_um = g.below(2) == 0 ? 100.0 : 200.0;
  c.options.anneal_moves = static_cast<int>(g.below(301));
  c.seed = g();
  return c;
}

class PlacerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PlacerDifferential, MatchesNaiveOracleBitForBit) {
  constexpr int kCases = 500;  // per shard; six shards
  Rng g(0xd1ce + static_cast<std::uint64_t>(GetParam()));
  int fallbacks = 0;
  int symmetric_constructive = 0;
  int second_chances = 0;
  int multi_anchor_constructive = 0;
  int inexact_fallbacks = 0;
  int inexact_second_chances = 0;
  for (int n = 0; n < kCases; ++n) {
    PlacerCase c = random_case(g);
    Floorplan naive_fp = c.fp;
    Rng rng(c.seed);
    Rng naive_rng(c.seed);
    const PlacementResult got = Placer(c.options).place(c.fp, c.blocks, rng);
    reference::NaivePlaceTrace trace;
    const PlacementResult want = reference::naive_place(
        c.options, naive_fp, c.blocks, naive_rng, &trace);
    ASSERT_TRUE(same_placement(got, want)) << "case " << n;
    ASSERT_EQ(rng(), naive_rng()) << "case " << n;
    ASSERT_TRUE(same_occupancy(c.fp, naive_fp)) << "case " << n;
    if (trace.shelf_fallback) ++fallbacks;
    if (c.symmetric && !trace.shelf_fallback) ++symmetric_constructive;
    if (trace.second_chance_after_commit) ++second_chances;
    if (inexact_bin(c.fp.bin_um())) {
      if (trace.shelf_fallback) ++inexact_fallbacks;
      if (trace.second_chance_after_commit) ++inexact_second_chances;
    }
    const bool multi_anchor = std::any_of(
        c.blocks.begin(), c.blocks.end(), [](const SoftBlock& b) {
          return b.affinities.size() >= 2 &&
                 std::all_of(b.affinities.begin(), b.affinities.end(),
                             [](const auto& a) { return a.second >= 0.0; });
        });
    if (multi_anchor && !trace.shelf_fallback) ++multi_anchor_constructive;
  }
  // The generator reaches the shelf fallback; the constructive search on
  // symmetric cases and on blocks with several anchors, whose rows are
  // scanned; and second-chance scans whose run tables are first built
  // after siblings were committed, where the free-bin map proves rows
  // empty.  Inexact bins reach the fallback and the second chance too.
  EXPECT_GT(fallbacks, kCases / 10);
  EXPECT_GT(symmetric_constructive, kCases / 20);
  EXPECT_GT(multi_anchor_constructive, kCases / 3);
  EXPECT_GT(second_chances, kCases / 10);
  EXPECT_GT(inexact_fallbacks, kCases / 20);
  EXPECT_GT(inexact_second_chances, kCases / 20);
}

INSTANTIATE_TEST_SUITE_P(Shards, PlacerDifferential, ::testing::Range(0, 6));

FlowInput case_study_input() {
  FlowInput input;
  input.rram_capacity_bits = units::mb_to_bits(64.0);
  input.cs_sram_area_um2 = 1.97e6;
  input.cs_logic_area_um2 = 4.6e6;
  input.cs_logic_gates = 295600;
  return input;
}

/// Rebuild one flow design's macro floorplan from its report and place the
/// flow's soft blocks on it — per CS a logic block and two SRAM halves,
/// pulled toward the first sub-array of the CS's bank — with Placer::place
/// and with the oracle, both seeded like the flow.  The first must
/// reproduce the flow's own placement, which shows the blocks are the
/// flow's; the oracle must then match it bit for bit.
void expect_design_matches_oracle(const FlowInput& input,
                                  const DesignReport& report, bool m3d,
                                  std::int64_t cs_count) {
  const auto floorplan = [&] {
    Floorplan fp(report.die_width_um, report.die_height_um,
                 m3d ? tech::TierStack::make_m3d_130nm()
                     : tech::TierStack::make_2d_baseline_130nm(),
                 50.0);
    for (const PlacedMacro& m : report.placed_macros) {
      EXPECT_TRUE(fp.place_macro(m.macro, m.rect.x0, m.rect.y0))
          << m.macro.name;
    }
    return fp;
  };
  const auto bank_macro = [&](std::int64_t bank) {
    const std::string name = "rram_bank" + std::to_string(bank) + "_0";
    const auto& macros = report.placed_macros;
    const auto it = std::find_if(
        macros.begin(), macros.end(),
        [&](const PlacedMacro& m) { return m.macro.name == name; });
    EXPECT_NE(it, macros.end()) << name;
    return static_cast<std::size_t>(it - macros.begin());
  };
  const std::int64_t banks = m3d ? cs_count : 1;
  std::vector<SoftBlock> blocks;
  for (std::int64_t c = 0; c < cs_count; ++c) {
    const std::size_t bank = bank_macro(c % banks);
    SoftBlock logic;
    logic.name = "cs" + std::to_string(c) + "_logic";
    logic.area_um2 = input.cs_logic_area_um2;
    logic.affinities = {{bank, 1.0}};
    blocks.push_back(logic);
    for (int half = 0; half < 2; ++half) {
      SoftBlock sram;
      sram.name = "cs" + std::to_string(c) + "_sram" + std::to_string(half);
      sram.area_um2 = input.cs_sram_area_um2 / 2.0;
      sram.affinities = {{bank, 0.5}};
      blocks.push_back(sram);
    }
  }

  Floorplan fp = floorplan();
  Floorplan naive_fp = floorplan();
  Rng rng(1);
  Rng naive_rng(1);
  const PlacementResult got = Placer().place(fp, blocks, rng);
  const PlacementResult want =
      reference::naive_place(PlacerOptions{}, naive_fp, blocks, naive_rng);
  ASSERT_EQ(got.blocks.size(), report.placed_blocks.size());
  for (std::size_t i = 0; i < got.blocks.size(); ++i) {
    EXPECT_EQ(got.blocks[i].macro.name, report.placed_blocks[i].macro.name);
    EXPECT_TRUE(same_rect(got.blocks[i].rect, report.placed_blocks[i].rect))
        << "block " << i;
  }
  EXPECT_TRUE(same_bits(fp.utilization(tech::TierKind::kSiCmosFeol),
                        report.si_utilization));
  EXPECT_TRUE(same_placement(got, want));
  EXPECT_EQ(rng(), naive_rng());
  EXPECT_TRUE(same_occupancy(fp, naive_fp));
}

TEST(PlacementDeterminism, RunComparisonBitIdenticalWithIndexOff) {
  // "Index off" is the naive oracle: no occupancy-index scans, no bound,
  // no cursor, no buckets.  Both Fig. 2 designs of an 8-CS comparison.
  const FlowComparison cmp = M3dFlow().run_comparison(case_study_input(), 8);
  expect_design_matches_oracle(case_study_input(), cmp.design_2d,
                               /*m3d=*/false, 1);
  expect_design_matches_oracle(case_study_input(), cmp.design_3d,
                               /*m3d=*/true, 8);
}

TEST(PlacementDeterminism, AutoSizedM3dDesignBitIdenticalWithIndexOff) {
  // Eight CSs on an auto-sized die: the constructive pass fragments the
  // free space and stops at its first unplaceable block, and the shelf
  // fallback places every block.
  const DesignReport report =
      M3dFlow().run_design(case_study_input(), /*m3d=*/true, 8);
  EXPECT_TRUE(report.feasible);
  expect_design_matches_oracle(case_study_input(), report, /*m3d=*/true, 8);
}

}  // namespace
}  // namespace uld3d::phys
