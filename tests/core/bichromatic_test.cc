#include "core/bichromatic.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/skyline.h"
#include "data/generators.h"
#include "order/multi_sort.h"
#include "order/attribute_order.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

struct BiSetup {
  Dataset candidates;
  Dataset competitors;
  SimilaritySpace space;

  BiSetup(uint64_t seed, uint64_t n_candidates, uint64_t n_competitors,
          std::vector<size_t> cards)
      : candidates(Schema::Categorical(cards)),
        competitors(Schema::Categorical(cards)) {
    Rng rng(seed);
    Rng c_rng = rng.Fork();
    Rng p_rng = rng.Fork();
    Rng s_rng = rng.Fork();
    candidates = GenerateNormal(n_candidates, cards, c_rng);
    competitors = GenerateUniform(n_competitors, cards, p_rng);
    space = MakeRandomSpace(cards, s_rng);
  }
};

// Stores candidates (sorted for the tree variant) and competitors on one
// disk.
struct StoredPair {
  StoredDataset candidates;
  StoredDataset competitors;
};

StoredPair Store(SimulatedDisk* disk, const BiSetup& s, bool sort_candidates) {
  Dataset cands = s.candidates;
  if (sort_candidates) {
    // Keep original ids: write through the pipeline-style ordered writer by
    // serializing a permuted copy with explicit ids.
    auto order = MultiAttributeSortOrder(
        s.candidates, AscendingCardinalityOrder(s.candidates.schema()));
    FileId file = disk->CreateFile("bi-candidates");
    RowWriter writer(disk, file, s.candidates.schema());
    for (RowId src : order) {
      NMRS_CHECK(writer
                     .Add(src, s.candidates.RowValues(src),
                          s.candidates.RowNumerics(src))
                     .ok());
    }
    NMRS_CHECK(writer.Finish().ok());
    StoredDataset stored_c(disk, file, s.candidates.schema(),
                           s.candidates.num_rows());
    auto stored_p = StoredDataset::Create(disk, s.competitors, "bi-comp");
    NMRS_CHECK(stored_p.ok());
    return {stored_c, std::move(stored_p).value()};
  }
  auto stored_c = StoredDataset::Create(disk, cands, "bi-candidates");
  auto stored_p = StoredDataset::Create(disk, s.competitors, "bi-comp");
  NMRS_CHECK(stored_c.ok() && stored_p.ok());
  return {std::move(stored_c).value(), std::move(stored_p).value()};
}

class BichromaticAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BichromaticAgreement, BlockAndTreeMatchOracle) {
  const uint64_t seed = GetParam();
  BiSetup s(seed, 300, 500, {6, 6, 6});
  Rng rng(seed + 9);
  SimulatedDisk disk(512);
  StoredPair flat = Store(&disk, s, /*sort_candidates=*/false);
  StoredPair sorted = Store(&disk, s, /*sort_candidates=*/true);
  for (int qi = 0; qi < 3; ++qi) {
    Object q = SampleUniformQuery(s.candidates, rng);
    auto expected = BichromaticOracle(s.candidates, s.competitors, s.space, q);
    RSOptions opts;
    opts.memory.pages = 3;
    auto block = BichromaticBlockRS(flat.candidates, flat.competitors,
                                    s.space, q, opts);
    ASSERT_TRUE(block.ok()) << block.status();
    EXPECT_EQ(block->rows, expected);
    auto tree = BichromaticTreeRS(sorted.candidates, sorted.competitors,
                                  s.space, q, opts);
    ASSERT_TRUE(tree.ok()) << tree.status();
    EXPECT_EQ(tree->rows, expected);
    // Group-level reasoning must save attribute-level checks.
    EXPECT_LT(tree->stats.checks, block->stats.checks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BichromaticAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(BichromaticTest, IdenticalValueAcrossSetsStillPrunes) {
  // A competitor with exactly the candidate's values prunes it whenever Q
  // differs (no identity exemption across sets — unlike the monochromatic
  // case).
  Dataset cands(Schema::Categorical({3}));
  cands.AppendCategoricalRow({1});
  Dataset comps(Schema::Categorical({3}));
  comps.AppendCategoricalRow({1});
  Rng rng(5);
  SimilaritySpace space = MakeRandomSpace({3}, rng);
  Object q({0});
  ASSERT_GT(space.CatDist(0, 0, 1), 0.0);
  auto oracle = BichromaticOracle(cands, comps, space, q);
  EXPECT_TRUE(oracle.empty());

  SimulatedDisk disk(128);
  auto sc = StoredDataset::Create(&disk, cands, "c");
  auto sp = StoredDataset::Create(&disk, comps, "p");
  ASSERT_TRUE(sc.ok() && sp.ok());
  auto tree = BichromaticTreeRS(*sc, *sp, space, q);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->rows.empty());
  // The block variant too, on the scalar scan and on the kernel path
  // (probe and block regimes): both rows carry id 0, and ids of the two
  // sets are unrelated, so the shared id must not exempt the competitor.
  for (const bool kernels : {false, true}) {
    for (const uint32_t promote : {0u, 16u}) {
      RSOptions opts;
      opts.use_kernels = kernels;
      opts.kernel_promote_rows = promote;
      auto block = BichromaticBlockRS(*sc, *sp, space, q, opts);
      ASSERT_TRUE(block.ok());
      EXPECT_TRUE(block->rows.empty())
          << "kernels=" << kernels << " promote=" << promote;
      EXPECT_EQ(block->stats.pair_tests, 1u);
    }
  }
}

TEST(BichromaticTest, EmptyCompetitorsKeepsAllCandidates) {
  BiSetup s(7, 50, 0, {4, 4});
  Rng rng(8);
  Object q = SampleUniformQuery(s.candidates, rng);
  SimulatedDisk disk(256);
  StoredPair pair = Store(&disk, s, false);
  auto block = BichromaticBlockRS(pair.candidates, pair.competitors, s.space,
                                  q);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->rows.size(), 50u);
}

TEST(BichromaticTest, EmptyCandidates) {
  BiSetup s(9, 0, 50, {4, 4});
  Object q({0, 0});
  SimulatedDisk disk(256);
  StoredPair pair = Store(&disk, s, false);
  auto tree = BichromaticTreeRS(pair.candidates, pair.competitors, s.space,
                                q);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->rows.empty());
}

TEST(BichromaticTest, MonochromaticAsSpecialCase) {
  // With C = P = D, the bichromatic result is the subset of the
  // monochromatic RS whose members are not pruned even by their own
  // value-duplicates or themselves; rows where Q sits exactly at the
  // candidate survive.
  testing::RandomInstance inst(11, 150, {5, 5});
  Rng rng(12);
  Object q = SampleUniformQuery(inst.data, rng);
  SimulatedDisk disk(256);
  auto sc = StoredDataset::Create(&disk, inst.data, "c");
  auto sp = StoredDataset::Create(&disk, inst.data, "p");
  ASSERT_TRUE(sc.ok() && sp.ok());
  auto bi = BichromaticBlockRS(*sc, *sp, inst.space, q);
  ASSERT_TRUE(bi.ok());
  auto mono = ReverseSkylineOracle(inst.data, inst.space, q);
  // Bichromatic (with self-pruning) is a subset of monochromatic.
  EXPECT_TRUE(std::includes(mono.begin(), mono.end(), bi->rows.begin(),
                            bi->rows.end()));
}

TEST(BichromaticTest, SubsetQueries) {
  BiSetup s(13, 200, 300, {5, 5, 5, 5});
  Rng rng(14);
  Object q = SampleUniformQuery(s.candidates, rng);
  const std::vector<AttrId> sel = {1, 3};
  auto expected =
      BichromaticOracle(s.candidates, s.competitors, s.space, q, sel);
  SimulatedDisk disk(512);
  StoredPair pair = Store(&disk, s, true);
  RSOptions opts;
  opts.selected_attrs = sel;
  auto tree =
      BichromaticTreeRS(pair.candidates, pair.competitors, s.space, q, opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->rows, expected);
}

TEST(BichromaticTest, MemorySweep) {
  BiSetup s(15, 400, 400, {6, 6});
  Rng rng(16);
  Object q = SampleUniformQuery(s.candidates, rng);
  auto expected = BichromaticOracle(s.candidates, s.competitors, s.space, q);
  SimulatedDisk disk(256);
  StoredPair pair = Store(&disk, s, true);
  for (uint64_t mem : {2u, 3u, 8u, 1000u}) {
    RSOptions opts;
    opts.memory.pages = mem;
    auto block = BichromaticBlockRS(pair.candidates, pair.competitors,
                                    s.space, q, opts);
    auto tree = BichromaticTreeRS(pair.candidates, pair.competitors, s.space,
                                  q, opts);
    ASSERT_TRUE(block.ok() && tree.ok());
    EXPECT_EQ(block->rows, expected) << "mem=" << mem;
    EXPECT_EQ(tree->rows, expected) << "mem=" << mem;
  }
}

}  // namespace
}  // namespace nmrs
