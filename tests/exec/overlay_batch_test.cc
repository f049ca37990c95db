#include <memory>
#include <vector>

#include "data/generators.h"
#include "exec/overlay_exec.h"
#include "exec/sharded_engine.h"
#include "gtest/gtest.h"
#include "sim/matrix_overlay.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// The overlay contract (docs/OVERLAYS.md): RunOverlayBatch's rows are
// bit-identical to rebuilding each user's patched SimilaritySpace and
// running the full batch per user — for every algorithm, composed with
// workers, caching, kernels, shared scans, sharding and replica faults.

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kNaive, Algorithm::kBRS,
                                        Algorithm::kSRS, Algorithm::kTRS};

struct OverlayWorkload {
  OverlayWorkload() : instance(20260809, 1200, {5, 6, 7}) {
    Rng rng(271828);
    for (int i = 0; i < 8; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
    const double touch[] = {0.02, 0.10, 0.35};
    for (double t : touch) {
      Rng fork = rng.Fork();
      overlays.push_back(std::make_unique<MatrixOverlay>(
          MakeRandomOverlay(instance.space, fork, t)));
    }
  }

  std::vector<const MatrixOverlay*> OverlayPtrs() const {
    std::vector<const MatrixOverlay*> ptrs;
    for (const auto& o : overlays) ptrs.push_back(o.get());
    return ptrs;
  }

  RandomInstance instance;
  std::vector<Object> queries;
  std::vector<std::unique_ptr<MatrixOverlay>> overlays;
};

const OverlayWorkload& SharedWorkload() {
  static const OverlayWorkload* wl = new OverlayWorkload();
  return *wl;
}

// Reference: user u's rows computed the expensive way — patched space,
// full per-user batch through a fresh engine.
std::vector<std::vector<std::vector<RowId>>> RebuildReference(
    const PreparedDataset& prepared, Algorithm algo,
    const EngineOptions& opts) {
  const OverlayWorkload& wl = SharedWorkload();
  const ShardedDataset one = ShardedDataset::Partition(prepared, {}).value();
  std::vector<std::vector<std::vector<RowId>>> rows(
      wl.queries.size(),
      std::vector<std::vector<RowId>>(wl.overlays.size()));
  for (size_t u = 0; u < wl.overlays.size(); ++u) {
    const SimilaritySpace patched = wl.overlays[u]->BuildPatchedSpace();
    ShardedQueryEngine engine(one, patched, algo, opts);
    auto batch = engine.RunBatch(wl.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    for (size_t q = 0; q < wl.queries.size(); ++q) {
      rows[q][u] = batch->results[q].rows;
    }
  }
  return rows;
}

void ExpectMatchesRebuild(const PreparedDataset& prepared, Algorithm algo,
                          EngineOptions opts) {
  const OverlayWorkload& wl = SharedWorkload();
  const ShardedDataset one = ShardedDataset::Partition(prepared, {}).value();
  ShardedQueryEngine engine(one, wl.instance.space, algo, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();
  const auto want = RebuildReference(prepared, algo, opts);
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    for (size_t u = 0; u < wl.overlays.size(); ++u) {
      EXPECT_EQ(got->results[q][u].rows, want[q][u])
          << "algo=" << AlgorithmName(algo) << " q=" << q << " u=" << u;
    }
  }
}

TEST(OverlayBatchTest, MatchesPerUserRebuildAllAlgorithms) {
  const OverlayWorkload& wl = SharedWorkload();
  for (Algorithm algo : kAllAlgorithms) {
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prep.ok()) << prep.status();
    EngineOptions opts;
    opts.num_workers = 4;
    ExpectMatchesRebuild(*prep, algo, opts);
  }
}

TEST(OverlayBatchTest, MatchesRebuildWithKernelsCacheAndSharedScans) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kSRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 3;
  opts.rs.use_kernels = true;
  opts.cache_pages = 32;
  opts.shared_scan = true;
  opts.shared_scan_group = 3;
  ExpectMatchesRebuild(*prep, Algorithm::kSRS, opts);
}

TEST(OverlayBatchTest, MatchesRebuildUnderReplicaFaults) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  PrepareOptions po;
  po.checksum_pages = true;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS, po);
  ASSERT_TRUE(prep.ok()) << prep.status();
  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs.resilience.checksum_pages = true;
  opts.rs.resilience.replicas = 2;
  opts.faults.seed = 7;
  opts.faults.transient_read_p = 0.02;
  opts.faults.corrupt_p = 0.01;
  ExpectMatchesRebuild(*prep, Algorithm::kBRS, opts);
}

TEST(OverlayBatchTest, ResultsIndependentOfOverlayGroupAndWorkers) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const ShardedDataset one = ShardedDataset::Partition(*prep, {}).value();

  std::vector<std::vector<std::vector<RowId>>> baseline;
  for (size_t workers : {1u, 4u}) {
    for (size_t group : {1u, 2u, 16u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.overlay_group = group;
      ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kBRS, opts);
      auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(got->ok()) << got->first_error();
      std::vector<std::vector<std::vector<RowId>>> rows(wl.queries.size());
      for (size_t q = 0; q < wl.queries.size(); ++q) {
        for (size_t u = 0; u < wl.overlays.size(); ++u) {
          rows[q].push_back(got->results[q][u].rows);
        }
      }
      if (baseline.empty()) {
        baseline = rows;
      } else {
        EXPECT_EQ(rows, baseline)
            << "workers=" << workers << " group=" << group;
      }
    }
  }
}

TEST(OverlayBatchTest, TelemetryAccountsEveryRowAndScan) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const ShardedDataset one = ShardedDataset::Partition(*prep, {}).value();
  EngineOptions opts;
  opts.num_workers = 2;
  opts.overlay_group = 2;
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kBRS, opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();

  const uint64_t rows = wl.instance.data.num_rows();
  const uint64_t users = wl.overlays.size();
  EXPECT_EQ(got->sensitive_rows + got->invariant_rows, rows * users);
  EXPECT_GT(got->sensitive_rows, 0u);
  // Grouped scans: at most ceil(users / group) passes per query.
  const uint64_t max_scans =
      wl.queries.size() * ((users + opts.overlay_group - 1) /
                           opts.overlay_group);
  EXPECT_LE(got->recheck_scans, max_scans);
  EXPECT_GT(got->recheck_scans, 0u);
  EXPECT_GT(got->recheck_checks, 0u);
  EXPECT_GT(got->overlay_io.Total(), 0u);
  EXPECT_GT(got->ModeledMakespanMillis(), 0.0);
  EXPECT_GT(got->ModeledQps(), 0.0);
  // The base batch is carried inside and already complete.
  EXPECT_EQ(got->base.results.size(), wl.queries.size());
}

TEST(OverlayBatchTest, ShardedMatchesPerUserRebuild) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prep.ok()) << prep.status();
  ShardPlanOptions plan;
  plan.num_shards = 3;
  auto sharded = ShardedDataset::Partition(*prep, plan);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  EngineOptions opts;
  opts.num_workers = 3;
  ShardedQueryEngine engine(*sharded, wl.instance.space, Algorithm::kBRS,
                            opts);
  auto got = engine.RunOverlayBatch(wl.queries, wl.OverlayPtrs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();

  for (size_t u = 0; u < wl.overlays.size(); ++u) {
    const SimilaritySpace patched = wl.overlays[u]->BuildPatchedSpace();
    ShardedQueryEngine ref(*sharded, patched, Algorithm::kBRS, opts);
    auto want = ref.RunBatch(wl.queries);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(want->ok()) << want->first_error();
    for (size_t q = 0; q < wl.queries.size(); ++q) {
      EXPECT_EQ(got->results[q][u].rows, want->results[q].rows)
          << "q=" << q << " u=" << u;
    }
  }
  EXPECT_EQ(got->sensitive_rows + got->invariant_rows,
            wl.instance.data.num_rows() * wl.overlays.size());
}

TEST(OverlayBatchTest, InvariantOnlyUserAnswersFromBaseRun) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kNaive);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const ShardedDataset one = ShardedDataset::Partition(*prep, {}).value();

  // A delta on value ids the dataset never stores as candidate values
  // would need out-of-domain ids; instead use an empty-delta user next to
  // a real one: the empty overlay is invalid input for RunOverlayBatch's
  // per-user list only if null — an empty (never-Set) overlay classifies
  // every row invariant and must answer exactly the base rows.
  MatrixOverlay transparent(wl.instance.space);
  std::vector<const MatrixOverlay*> overlays = {wl.overlays[0].get(),
                                                &transparent};
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kNaive, {});
  auto got = engine.RunOverlayBatch(wl.queries, overlays);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->first_error();
  for (size_t q = 0; q < wl.queries.size(); ++q) {
    EXPECT_EQ(got->results[q][1].rows, got->base.results[q].rows) << q;
  }
}

TEST(OverlayBatchTest, RejectsInvalidOverlayArguments) {
  const OverlayWorkload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, Algorithm::kNaive);
  ASSERT_TRUE(prep.ok()) << prep.status();
  const ShardedDataset one = ShardedDataset::Partition(*prep, {}).value();
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kNaive, {});

  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {nullptr})
                  .status()
                  .IsInvalidArgument());

  // Overlay over a different (if identical-looking) base space.
  RandomInstance other(20260809, 10, {5, 6, 7});
  Rng rng(1);
  MatrixOverlay foreign = MakeRandomOverlay(other.space, rng, 0.05);
  EXPECT_TRUE(engine.RunOverlayBatch(wl.queries, {&foreign})
                  .status()
                  .IsInvalidArgument());

  // Engine whose rs template already carries an overlay: ambiguous.
  EngineOptions opts;
  opts.rs.overlay = wl.overlays[0].get();
  ShardedQueryEngine tainted(one, wl.instance.space, Algorithm::kNaive, opts);
  EXPECT_TRUE(tainted.RunOverlayBatch(wl.queries, wl.OverlayPtrs())
                  .status()
                  .IsInvalidArgument());
}

TEST(OverlayBatchTest, SingleQueryOverlayOptionMatchesPatchedSpace) {
  // RSOptions::overlay on a plain RunReverseSkyline call — the native
  // delta path — against the materialized patched space, per algorithm.
  const OverlayWorkload& wl = SharedWorkload();
  for (Algorithm algo : kAllAlgorithms) {
    SimulatedDisk disk;
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prep.ok()) << prep.status();
    for (const auto& overlay : wl.overlays) {
      const SimilaritySpace patched = overlay->BuildPatchedSpace();
      for (const Object& query : wl.queries) {
        RSOptions with_overlay;
        with_overlay.overlay = overlay.get();
        auto got = RunReverseSkyline(*prep, wl.instance.space, query, algo,
                                     with_overlay);
        ASSERT_TRUE(got.ok()) << got.status();
        auto want = RunReverseSkyline(*prep, patched, query, algo, {});
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_EQ(got->rows, want->rows) << AlgorithmName(algo);
      }
    }
  }
}

}  // namespace
}  // namespace nmrs
