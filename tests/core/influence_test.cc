#include "core/influence.h"

#include <gtest/gtest.h>

#include "core/skyline.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

TEST(InfluenceTest, RankingMatchesPerQueryOracle) {
  RandomInstance inst(1, 300, {6, 6, 6});
  Rng rng(2);
  std::vector<Object> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(SampleUniformQuery(inst.data, rng));
  }
  SimulatedDisk disk(512);
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kTRS, {});
  ASSERT_TRUE(prepared.ok());
  auto report = AnalyzeInfluence(*prepared, inst.space, queries);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->ranking.size(), queries.size());

  uint64_t total = 0;
  for (const auto& entry : report->ranking) {
    const auto oracle = ReverseSkylineOracle(inst.data, inst.space,
                                             queries[entry.query_index]);
    EXPECT_EQ(entry.influence, oracle.size());
    total += entry.influence;
  }
  EXPECT_EQ(report->total_influence, total);
  for (size_t i = 1; i < report->ranking.size(); ++i) {
    EXPECT_GE(report->ranking[i - 1].influence,
              report->ranking[i].influence);
  }
}

TEST(InfluenceTest, TopShare) {
  InfluenceReport report;
  report.ranking = {{0, 6, {}}, {1, 3, {}}, {2, 1, {}}};
  report.total_influence = 10;
  EXPECT_DOUBLE_EQ(report.TopShare(1), 0.6);
  EXPECT_DOUBLE_EQ(report.TopShare(2), 0.9);
  EXPECT_DOUBLE_EQ(report.TopShare(10), 1.0);
}

TEST(InfluenceTest, TopShareOfEmptyReport) {
  InfluenceReport report;
  EXPECT_DOUBLE_EQ(report.TopShare(3), 0.0);
}

TEST(InfluenceTest, GiniExtremes) {
  InfluenceReport even;
  even.ranking = {{0, 5, {}}, {1, 5, {}}, {2, 5, {}}, {3, 5, {}}};
  even.total_influence = 20;
  EXPECT_NEAR(even.Gini(), 0.0, 1e-9);

  InfluenceReport skewed;
  skewed.ranking = {{0, 100, {}}, {1, 0, {}}, {2, 0, {}}, {3, 0, {}}};
  skewed.total_influence = 100;
  EXPECT_NEAR(skewed.Gini(), 0.75, 1e-9);  // (n-1)/n for a single holder
}

TEST(InfluenceTest, GiniBetweenZeroAndOne) {
  RandomInstance inst(3, 200, {5, 5});
  Rng rng(4);
  std::vector<Object> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(SampleUniformQuery(inst.data, rng));
  }
  SimulatedDisk disk(512);
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kSRS, {});
  ASSERT_TRUE(prepared.ok());
  auto report =
      AnalyzeInfluence(*prepared, inst.space, queries, Algorithm::kSRS);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->Gini(), 0.0);
  EXPECT_LE(report->Gini(), 1.0);
}

TEST(InfluenceTest, EmptyQueryList) {
  RandomInstance inst(5, 50, {4, 4});
  SimulatedDisk disk(512);
  auto prepared = PrepareDataset(&disk, inst.data, Algorithm::kTRS, {});
  ASSERT_TRUE(prepared.ok());
  auto report = AnalyzeInfluence(*prepared, inst.space, {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ranking.empty());
  EXPECT_EQ(report->total_influence, 0u);
  EXPECT_DOUBLE_EQ(report->Gini(), 0.0);
}

}  // namespace
}  // namespace nmrs
