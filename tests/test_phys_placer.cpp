#include "uld3d/phys/placer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

Floorplan make_fp(double side = 6000.0) {
  return Floorplan(side, side, tech::TierStack::make_m3d_130nm(), 100.0);
}

SoftBlock block(const std::string& name, double area,
                std::vector<std::pair<std::size_t, double>> affinities = {}) {
  SoftBlock b;
  b.name = name;
  b.area_um2 = area;
  b.tier = tech::TierKind::kSiCmosFeol;
  b.affinities = std::move(affinities);
  return b;
}

TEST(Placer, PlacesNonOverlappingBlocks) {
  Floorplan fp = make_fp();
  Rng rng(1);
  const Placer placer;
  const auto result =
      placer.place(fp, {block("a", 4.0e6), block("b", 4.0e6),
                        block("c", 4.0e6)}, rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.blocks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_FALSE(result.blocks[i].rect.overlaps(result.blocks[j].rect));
    }
  }
}

TEST(Placer, CommitsRegionsToFloorplan) {
  Floorplan fp = make_fp();
  Rng rng(1);
  const Placer placer;
  const auto result = placer.place(fp, {block("a", 9.0e6)}, rng);
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(
      fp.region_free(tech::TierKind::kSiCmosFeol, result.blocks[0].rect));
}

TEST(Placer, RespectsFixedMacroBlockages) {
  Floorplan fp = make_fp();
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_2d("m", 16.0e6), 0.0, 0.0));
  Rng rng(1);
  const Placer placer;
  const auto result = placer.place(fp, {block("a", 9.0e6)}, rng);
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(result.blocks[0].rect.overlaps(fp.macros()[0].rect));
}

TEST(Placer, AffinityPullsBlockTowardAnchor) {
  Floorplan fp = make_fp(10000.0);
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_m3d("anchor", 1.0e6), 8500.0,
                             8500.0));
  Rng rng(1);
  const Placer placer;
  const auto pulled =
      placer.place(fp, {block("a", 1.0e6, {{0, 1.0}})}, rng);
  ASSERT_TRUE(pulled.success);
  // The block lands near the top-right anchor, not at the origin.
  EXPECT_GT(pulled.blocks[0].rect.center().x, 5000.0);
  EXPECT_GT(pulled.blocks[0].rect.center().y, 5000.0);
}

TEST(Placer, ReportsUnplaceableBlocks) {
  Floorplan fp = make_fp(2000.0);
  Rng rng(1);
  const Placer placer;
  const auto result =
      placer.place(fp, {block("big", 3.6e6), block("huge", 3.6e6)}, rng);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.unplaced.size(), 1u);
  EXPECT_EQ(result.blocks.size(), 1u);
}

TEST(Placer, DeterministicForFixedSeed) {
  const Placer placer;
  const auto run = [&](std::uint64_t seed) {
    Floorplan fp = make_fp();
    Rng rng(seed);
    return placer.place(
        fp, {block("a", 4.0e6), block("b", 2.0e6), block("c", 1.0e6)}, rng);
  };
  const auto r1 = run(42);
  const auto r2 = run(42);
  ASSERT_EQ(r1.blocks.size(), r2.blocks.size());
  for (std::size_t i = 0; i < r1.blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.blocks[i].rect.x0, r2.blocks[i].rect.x0);
    EXPECT_DOUBLE_EQ(r1.blocks[i].rect.y0, r2.blocks[i].rect.y0);
  }
  EXPECT_DOUBLE_EQ(r1.total_hpwl_um, r2.total_hpwl_um);
}

TEST(Placer, DensePackingFallbackFillsTightDies) {
  // 16 blocks that fill ~89% of the die: the greedy affinity pass alone
  // fragments, but the shelf fallback must succeed.
  Floorplan fp = make_fp(6000.0);
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_m3d("anchor", 1.0e6), 0.0, 0.0));
  std::vector<SoftBlock> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(block("b" + std::to_string(i), 2.0e6, {{0, 1.0}}));
  }
  Rng rng(7);
  const Placer placer;
  const auto result = placer.place(fp, blocks, rng);
  EXPECT_TRUE(result.success) << result.unplaced.size() << " unplaced";
}

TEST(Placer, SourceIndexMapsPlacedBlocksBackToInputs) {
  // A deliberately unplaceable block must not shift the source mapping of
  // the blocks placed after it: every placed entry still names the input
  // block its source_index points at.
  Floorplan fp = make_fp(2000.0);
  Rng rng(1);
  const Placer placer;
  const std::vector<SoftBlock> blocks = {block("big", 3.6e6),
                                         block("huge", 3.6e6),
                                         block("small", 9.0e3)};
  const auto result = placer.place(fp, blocks, rng);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.unplaced.size(), 1u);
  ASSERT_EQ(result.source_index.size(), result.blocks.size());
  ASSERT_EQ(result.blocks.size(), 2u);
  for (std::size_t i = 0; i < result.blocks.size(); ++i) {
    ASSERT_LT(result.source_index[i], blocks.size());
    EXPECT_EQ(result.blocks[i].macro.name,
              blocks[result.source_index[i]].name);
  }
}

TEST(Placer, RejectsOutOfRangeAffinityIndex) {
  // An affinity pointing past the fixed macros is always a caller bug; it
  // must fail loudly instead of silently dropping the anchor.
  Floorplan fp = make_fp();
  ASSERT_TRUE(fp.place_macro(Macro::rram_array_m3d("anchor", 1.0e6), 0.0, 0.0));
  Rng rng(1);
  const Placer placer;
  EXPECT_THROW(placer.place(fp, {block("a", 1.0e6, {{1, 1.0}})}, rng),
               PreconditionError);
  EXPECT_THROW(placer.place(fp, {block("b", 1.0e6, {{99, 0.5}})}, rng),
               PreconditionError);
  // In-range affinities still place.
  const auto ok = placer.place(fp, {block("c", 1.0e6, {{0, 1.0}})}, rng);
  EXPECT_TRUE(ok.success);
}

TEST(Placer, RejectsNonPositiveAreaAfterAnUnplaceableBlock) {
  // The constructive pass stops at the first block that fits nowhere, so
  // the area precondition must not depend on the pass reaching a block:
  // the zero-area block sorts after the one that cannot fit.
  Floorplan fp = make_fp(2000.0);
  Rng rng(1);
  const Placer placer;
  EXPECT_THROW(placer.place(fp, {block("too_big", 9.0e6), block("empty", 0.0)},
                            rng),
               PreconditionError);
}

TEST(Placer, RejectsBlocksThinnerThanTheBinQuantization) {
  // Legality is tested on the bin-expanded footprint and the commit marks
  // the block's own bins.  A block narrower than ~1e-9 of a bin expands to
  // no bin at a bin edge, so a sibling could take its spot and the second
  // commit would find it taken: such blocks are refused up front, by name,
  // before anything is marked.
  Floorplan fp = make_fp();
  Rng rng(1);
  const Placer placer;
  try {
    placer.place(fp, {block("a", 1.0e6), block("tiny", 1.0e-16),
                      block("tiny_too", 1.0e-16)},
                 rng);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("tiny"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(fp.utilization(tech::TierKind::kSiCmosFeol), 0.0);
  // A block far thinner than a bin but covering one at every aspect still
  // places.
  const auto result = placer.place(fp, {block("thin", 1.0e-10)}, rng);
  EXPECT_TRUE(result.success);
}

TEST(Placer, BlockDimensionsFollowAspect) {
  SoftBlock b = block("a", 4.0e6);
  b.aspect = 4.0;
  EXPECT_NEAR(b.width_um() / b.height_um(), 4.0, 1e-9);
  EXPECT_NEAR(b.width_um() * b.height_um(), 4.0e6, 1e-6);
}

}  // namespace
}  // namespace uld3d::phys
