#include <string>
#include <vector>

#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// End-to-end fault behavior of ShardedQueryEngine::RunBatch over an
// unpartitioned dataset (Partition(prepared, {})): graceful per-query
// degradation, clean-view recovery, and the determinism guarantee — a fixed
// (seed, fault config, batch) produces byte-identical results, statuses and
// fault counters across runs and worker counts.

struct Workload {
  Workload() : instance(41, 8000, {6, 7, 8}) {
    Rng rng(271828);
    for (int i = 0; i < 64; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

class FaultBatchTest : public ::testing::Test {
 protected:
  FaultBatchTest() {
    prepared_ = std::make_unique<StatusOr<PreparedDataset>>(
        PrepareDataset(&disk_, wl_.instance.data, Algorithm::kSRS));
    EXPECT_TRUE(prepared_->ok()) << prepared_->status();
    one_ = std::make_unique<ShardedDataset>(
        ShardedDataset::Partition(prepared(), {}).value());
  }

  const PreparedDataset& prepared() const { return **prepared_; }

  ShardedBatchResult RunWith(EngineOptions opts) {
    ShardedQueryEngine engine(*one_, wl_.instance.space, Algorithm::kSRS,
                              opts);
    auto batch = engine.RunBatch(wl_.queries);
    EXPECT_TRUE(batch.ok()) << batch.status();
    return std::move(*batch);
  }

  // The fault-free ground truth every comparison keys off.
  ShardedBatchResult CleanBaseline() { return RunWith(EngineOptions{}); }

  Workload wl_;
  SimulatedDisk disk_;
  std::unique_ptr<StatusOr<PreparedDataset>> prepared_;
  std::unique_ptr<ShardedDataset> one_;
};

// Runs a batch over a freshly prepared single-shard dataset.
ShardedBatchResult RunOn(const PreparedDataset& prepared,
                         const SimilaritySpace& space,
                         const std::vector<Object>& queries,
                         EngineOptions opts) {
  const ShardedDataset one = ShardedDataset::Partition(prepared, {}).value();
  ShardedQueryEngine engine(one, space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(queries);
  EXPECT_TRUE(batch.ok()) << batch.status();
  return std::move(*batch);
}

void ExpectIdentical(const ShardedBatchResult& a,
                     const ShardedBatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows) << "query " << i;
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
    EXPECT_EQ(a.statuses[i].ToString(), b.statuses[i].ToString())
        << "query " << i;
  }
  EXPECT_EQ(a.total_io, b.total_io);
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

TEST_F(FaultBatchTest, FaultsOffIsBitIdenticalToDefaultEngine) {
  // Guard for the seed path: an engine with every fault option explicitly
  // at its default produces byte-identical output to the default engine,
  // with all fault counters zero and no checksum footer in play.
  ShardedBatchResult plain = CleanBaseline();
  EngineOptions off;
  off.faults = FaultConfig{};  // disabled
  off.rs.resilience.checksum_pages = false;
  off.max_query_retries = 0;
  ShardedBatchResult explicit_off = RunWith(off);
  ExpectIdentical(plain, explicit_off);
  EXPECT_TRUE(plain.ok());
  EXPECT_EQ(plain.num_failed(), 0u);
  EXPECT_TRUE(plain.quarantined.empty());
  EXPECT_EQ(plain.tasks_retried, 0u);
  EXPECT_EQ(plain.total_io.transient_retries, 0u);
  EXPECT_EQ(plain.total_io.checksum_failures, 0u);
  EXPECT_EQ(plain.total_io.quarantined_pages, 0u);
}

TEST_F(FaultBatchTest, BadPagesFailEveryScanningQueryGracefully) {
  // A permanently bad page in the dataset is hit by every full-scan query:
  // the batch must complete with 64 individual kDataLoss statuses and
  // partial stats — not die on the first error.
  const PageId mid =
      static_cast<PageId>(disk_.NumPages(prepared().stored.file()) / 2);
  EngineOptions opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({prepared().stored.file(), 0});
  opts.faults.bad_pages.insert({prepared().stored.file(), mid});
  ShardedBatchResult batch = RunWith(opts);

  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.num_failed(), wl_.queries.size());
  EXPECT_TRUE(batch.first_error().IsDataLoss()) << batch.first_error();
  for (size_t i = 0; i < batch.statuses.size(); ++i) {
    EXPECT_TRUE(batch.statuses[i].IsDataLoss()) << batch.statuses[i];
    EXPECT_TRUE(batch.statuses[i].IsStorageFault());
    EXPECT_TRUE(batch.results[i].rows.empty());
    // The dead scan still charged the pages it touched before dying.
    EXPECT_GT(batch.results[i].stats.io.Total(), 0u) << "query " << i;
  }
  // The sequential phase-1 scan dies on page 0, so only the first bad page
  // is ever reached (and therefore quarantined).
  ASSERT_EQ(batch.quarantined.size(), 1u);
  EXPECT_EQ(batch.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), 0}));
}

TEST_F(FaultBatchTest, CleanViewRetryRecoversEveryQuery) {
  // Same bad page, but max_query_retries models a replica read: every
  // query fails its faulty attempt and succeeds on the clean view, so the
  // batch ends fully correct while still reporting what went wrong.
  ShardedBatchResult clean = CleanBaseline();
  EngineOptions opts;
  opts.faults.seed = 1;
  opts.faults.bad_pages.insert({prepared().stored.file(), 0});
  opts.max_query_retries = 1;
  ShardedBatchResult batch = RunWith(opts);

  EXPECT_TRUE(batch.ok());
  EXPECT_EQ(batch.tasks_retried, wl_.queries.size());
  ASSERT_EQ(batch.quarantined.size(), 1u);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].rows, clean.results[i].rows) << "query " << i;
    // Replica-read accounting: the reported stats are the successful
    // attempt's, identical to a clean run.
    EXPECT_EQ(batch.results[i].stats.io, clean.results[i].stats.io);
  }
}

TEST_F(FaultBatchTest, TransientStormIsolatesAffectedQueries) {
  // No page-level retries: every transient kills its query, so a
  // deterministic subset of the batch fails while the rest must stay
  // bit-identical to the clean baseline.
  ShardedBatchResult clean = CleanBaseline();
  EngineOptions opts;
  opts.faults.seed = 1009;
  opts.faults.transient_read_p = 0.05;
  opts.rs.resilience.retry.max_attempts = 1;
  ShardedBatchResult batch = RunWith(opts);

  EXPECT_GT(batch.num_failed(), 0u) << "seed produced no affected query";
  EXPECT_LT(batch.num_failed(), wl_.queries.size())
      << "seed affected every query";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    if (batch.statuses[i].ok()) {
      EXPECT_EQ(batch.results[i].rows, clean.results[i].rows)
          << "unaffected query " << i << " diverged";
      EXPECT_EQ(batch.results[i].stats.io, clean.results[i].stats.io);
    } else {
      EXPECT_TRUE(batch.statuses[i].IsDataLoss()) << batch.statuses[i];
      EXPECT_TRUE(batch.results[i].rows.empty());
    }
  }
  EXPECT_FALSE(batch.quarantined.empty());
}

TEST_F(FaultBatchTest, AcceptanceScenarioTransientsPlusBadPages) {
  // The headline scenario: 64 queries, p = 1e-3 transients with the
  // default retry budget (which absorbs them), 2 permanently bad pages,
  // and one clean-view query retry. Affected queries report storage-fault
  // statuses on their faulty attempt and recover on the replica; the whole
  // batch returns correct rows.
  ShardedBatchResult clean = CleanBaseline();
  const PageId mid =
      static_cast<PageId>(disk_.NumPages(prepared().stored.file()) / 2);

  EngineOptions opts;
  opts.faults.seed = 7;
  opts.faults.transient_read_p = 1e-3;
  opts.faults.bad_pages.insert({prepared().stored.file(), mid});
  opts.faults.bad_pages.insert({prepared().stored.file(), mid + 1});

  // Without recovery: the batch completes, unaffected-by-definition there
  // are none (every scan crosses the bad page), every status is in the
  // kDataLoss/kCorruption family, partial stats flow.
  ShardedBatchResult no_retry = RunWith(opts);
  EXPECT_EQ(no_retry.num_failed(), wl_.queries.size());
  for (const Status& s : no_retry.statuses) {
    EXPECT_TRUE(s.IsStorageFault()) << s;
  }

  // With recovery: every query returns the correct rows.
  opts.max_query_retries = 1;
  ShardedBatchResult recovered = RunWith(opts);
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.tasks_retried, wl_.queries.size());
  for (size_t i = 0; i < recovered.results.size(); ++i) {
    EXPECT_EQ(recovered.results[i].rows, clean.results[i].rows)
        << "query " << i;
  }
  // The first bad page the scans reach is quarantined and reported.
  ASSERT_FALSE(recovered.quarantined.empty());
  EXPECT_EQ(recovered.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), mid}));
}

TEST_F(FaultBatchTest, FaultPatternIsIndependentOfWorkerCountAndRuns) {
  EngineOptions opts;
  opts.faults.seed = 99;
  opts.faults.transient_read_p = 0.05;
  // Some retries fire and are absorbed.
  opts.rs.resilience.retry.max_attempts = 2;

  ShardedBatchResult reference = RunWith(opts);  // default workers
  EXPECT_GT(reference.total_io.transient_retries, 0u);
  for (size_t workers : {1u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      EngineOptions o = opts;
      o.num_workers = workers;
      ShardedBatchResult batch = RunWith(o);
      ExpectIdentical(reference, batch);
    }
  }
}

TEST_F(FaultBatchTest, ChecksummedBatchSurvivesCorruptionViaRetry) {
  // Silent corruption + checksummed dataset: queries see kCorruption on
  // the faulty attempt and recover on the clean view. (Corruption with
  // checksums *off* is undetectable by design — covered in the reader
  // tests — so a corrupting batch config only makes sense sealed.)
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared =
      PrepareDataset(&disk, wl_.instance.data, Algorithm::kSRS, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  // The engine auto-enables verification.
  const ShardedBatchResult clean =
      RunOn(*prepared, wl_.instance.space, wl_.queries, EngineOptions{});
  ASSERT_TRUE(clean.ok()) << clean.first_error();

  EngineOptions opts;
  opts.faults.seed = 3;
  opts.faults.corrupt_p = 0.02;
  opts.max_query_retries = 1;
  const ShardedBatchResult batch =
      RunOn(*prepared, wl_.instance.space, wl_.queries, opts);
  EXPECT_TRUE(batch.ok()) << batch.first_error();
  EXPECT_GT(batch.total_io.checksum_failures +
                static_cast<uint64_t>(batch.tasks_retried),
            0u)
      << "corruption config fired nothing; raise corrupt_p";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].rows, clean.results[i].rows) << "query " << i;
  }
}

TEST_F(FaultBatchTest, ReplicaFailoverCompletesBatchWithZeroFailures) {
  // The PR 5 acceptance scenario: one replica suffers persistent data loss
  // (p = 1e-3 probabilistic bad sectors plus a guaranteed bad page 0 every
  // scan crosses), the other replica(s) are healthy, and there are NO
  // query-level retries — recovery must come entirely from page-granular
  // failover. The batch completes with zero failed queries and rows
  // bit-identical to the fault-free run.
  ShardedBatchResult clean = CleanBaseline();
  for (int replicas : {2, 3}) {
    FaultConfig lossy;
    lossy.seed = 4242;
    lossy.data_loss_p = 1e-3;
    lossy.bad_pages.insert({prepared().stored.file(), 0});

    EngineOptions opts;
    opts.rs.resilience.replicas = replicas;
    opts.replica_faults.assign(static_cast<size_t>(replicas), FaultConfig{});
    opts.replica_faults[0] = lossy;
    opts.max_query_retries = 0;
    ShardedBatchResult batch = RunWith(opts);

    EXPECT_TRUE(batch.ok()) << "replicas=" << replicas << ": "
                            << batch.first_error();
    EXPECT_EQ(batch.num_failed(), 0u);
    EXPECT_EQ(batch.tasks_retried, 0u);  // no clean-view re-runs happened
    EXPECT_TRUE(batch.quarantined.empty());  // no page failed EVERY replica
    EXPECT_GT(batch.total_io.failovers, 0u);
    EXPECT_GT(batch.total_io.replica_reads[1], 0u);
    for (size_t i = 0; i < batch.results.size(); ++i) {
      EXPECT_EQ(batch.results[i].rows, clean.results[i].rows)
          << "replicas=" << replicas << " query " << i;
    }
  }
}

TEST_F(FaultBatchTest, TotallyDeadReplicaIsDeterministicAcrossWorkerCounts) {
  // Replica 0 loses every page (p = 1.0): each reader pays one failover,
  // then sticks to the surviving replica. Results, statuses, and the full
  // per-query IO accounting (failovers and replica_reads included) must be
  // independent of worker count and repeatable.
  ShardedBatchResult clean = CleanBaseline();
  FaultConfig dead;
  dead.seed = 5;
  dead.data_loss_p = 1.0;

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {dead, FaultConfig{}};
  ShardedBatchResult reference = RunWith(opts);

  EXPECT_TRUE(reference.ok()) << reference.first_error();
  EXPECT_GT(reference.total_io.failovers, 0u);
  EXPECT_GT(reference.total_io.replica_reads[1], 0u);
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].rows, clean.results[i].rows)
        << "query " << i;
  }
  for (size_t workers : {1u, 8u}) {
    EngineOptions o = opts;
    o.num_workers = workers;
    ShardedBatchResult batch = RunWith(o);
    ExpectIdentical(reference, batch);
  }
}

TEST_F(FaultBatchTest, SingleReplicaIsBitIdenticalToTheUnreplicatedEngine) {
  // replicas = 1 must be a pure no-op: same fault pattern (replica 0 keeps
  // the seed verbatim), same results, same accounting as an engine that
  // never heard of replicas — and the failover counters stay zero.
  EngineOptions opts;
  opts.faults.seed = 99;
  opts.faults.transient_read_p = 0.05;
  opts.rs.resilience.retry.max_attempts = 2;
  ShardedBatchResult unreplicated = RunWith(opts);

  EngineOptions one = opts;
  one.rs.resilience.replicas = 1;
  ShardedBatchResult single = RunWith(one);
  ExpectIdentical(unreplicated, single);
  EXPECT_EQ(single.total_io.failovers, 0u);
  EXPECT_EQ(single.total_io.ReplicaReadsTotal(), 0u);
}

TEST_F(FaultBatchTest, AllReplicasLosingAPageStillFailsTheQuery) {
  // Failover is not magic: when every replica lost the same page (same
  // explicit bad_pages on both), the queries that need it must still fail
  // and the page must be quarantined.
  FaultConfig lossy;
  lossy.seed = 1;
  lossy.bad_pages.insert({prepared().stored.file(), 0});

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {lossy, lossy};
  ShardedBatchResult batch = RunWith(opts);

  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.num_failed(), wl_.queries.size());
  EXPECT_TRUE(batch.first_error().IsDataLoss()) << batch.first_error();
  ASSERT_EQ(batch.quarantined.size(), 1u);
  EXPECT_EQ(batch.quarantined[0],
            (std::pair<FileId, PageId>{prepared().stored.file(), 0}));
}

TEST_F(FaultBatchTest, FailoverComposesWithChecksumsAndCorruption) {
  // Replica 0 silently corrupts aggressively; the dataset is checksummed,
  // so verification catches it and page reads fail over to the clean
  // replica instead of surfacing kCorruption.
  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = true;
  auto prepared =
      PrepareDataset(&disk, wl_.instance.data, Algorithm::kSRS, popts);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  const ShardedBatchResult clean =
      RunOn(*prepared, wl_.instance.space, wl_.queries, EngineOptions{});
  ASSERT_TRUE(clean.ok()) << clean.first_error();

  FaultConfig corrupting;
  corrupting.seed = 3;
  corrupting.corrupt_p = 0.05;

  EngineOptions opts;
  opts.rs.resilience.replicas = 2;
  opts.replica_faults = {corrupting, FaultConfig{}};
  const ShardedBatchResult batch =
      RunOn(*prepared, wl_.instance.space, wl_.queries, opts);
  EXPECT_TRUE(batch.ok()) << batch.first_error();
  EXPECT_GT(batch.total_io.checksum_failures, 0u)
      << "corruption config fired nothing; raise corrupt_p";
  EXPECT_GT(batch.total_io.failovers, 0u);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].rows, clean.results[i].rows) << "query " << i;
  }
}

}  // namespace
}  // namespace nmrs
