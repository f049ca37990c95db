#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// The sharding determinism contract (docs/SHARDING.md): result rows and
// statuses are bit-identical to single-shard execution for every shard
// count, partitioner, worker count, cache setting and replica/failover
// configuration — and with one shard the engine reproduces a sequential
// run exactly, counters and IO included.

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kNaive, Algorithm::kBRS,
                                        Algorithm::kSRS, Algorithm::kTRS};

struct Workload {
  Workload() : instance(97, 2500, {6, 7, 8}) {
    Rng rng(314159);
    for (int i = 0; i < 24; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

const Workload& SharedWorkload() {
  static const Workload* wl = new Workload();
  return *wl;
}

struct Fixture {
  Fixture(Algorithm algo, int num_shards,
          ShardBy shard_by = ShardBy::kZOrderRange)
      : algo(algo) {
    const Workload& wl = SharedWorkload();
    auto prep = PrepareDataset(&disk, wl.instance.data, algo);
    NMRS_CHECK(prep.ok()) << prep.status();
    prepared = std::make_unique<PreparedDataset>(std::move(*prep));
    ShardPlanOptions plan;
    plan.num_shards = num_shards;
    plan.shard_by = shard_by;
    auto sh = ShardedDataset::Partition(*prepared, plan);
    NMRS_CHECK(sh.ok()) << sh.status();
    sharded = std::make_unique<ShardedDataset>(std::move(*sh));
  }

  ShardedBatchResult Run(EngineOptions opts = {}) {
    const Workload& wl = SharedWorkload();
    ShardedQueryEngine engine(*sharded, wl.instance.space, algo, opts);
    auto batch = engine.RunBatch(wl.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    return std::move(*batch);
  }

  Algorithm algo;
  SimulatedDisk disk;
  std::unique_ptr<PreparedDataset> prepared;
  std::unique_ptr<ShardedDataset> sharded;
};

// The unpartitioned reference: a sequential RunReverseSkyline per query.
std::vector<ReverseSkylineResult> RunSequential(Algorithm algo) {
  const Workload& wl = SharedWorkload();
  SimulatedDisk disk;
  auto prep = PrepareDataset(&disk, wl.instance.data, algo);
  NMRS_CHECK(prep.ok()) << prep.status();
  std::vector<ReverseSkylineResult> out;
  for (const Object& q : wl.queries) {
    auto r = RunReverseSkyline(*prep, wl.instance.space, q, algo);
    NMRS_CHECK(r.ok()) << r.status();
    out.push_back(std::move(*r));
  }
  return out;
}

void ExpectSameRows(const ShardedBatchResult& got,
                    const std::vector<ReverseSkylineResult>& want,
                    const std::string& label) {
  ASSERT_EQ(got.results.size(), want.size()) << label;
  for (size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(got.results[i].rows, want[i].rows) << label << " query " << i;
    EXPECT_TRUE(got.statuses[i].ok()) << label << " query " << i;
  }
}

void ExpectSameRows(const ShardedBatchResult& a, const ShardedBatchResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows)
        << label << " query " << i;
    EXPECT_EQ(a.statuses[i].ToString(), b.statuses[i].ToString())
        << label << " query " << i;
  }
}

TEST(ShardedDeterminismTest, EveryShardCountMatchesPlainEngineAllAlgorithms) {
  for (Algorithm algo : kAllAlgorithms) {
    const std::vector<ReverseSkylineResult> want = RunSequential(algo);
    for (int shards = 1; shards <= 4; ++shards) {
      for (ShardBy by : {ShardBy::kZOrderRange, ShardBy::kHash}) {
        Fixture fx(algo, shards, by);
        ShardedBatchResult got = fx.Run();
        ExpectSameRows(got, want,
                       std::string(AlgorithmName(algo)) + " shards=" +
                           std::to_string(shards) + " by=" +
                           std::string(ShardByName(by)));
      }
    }
  }
}

TEST(ShardedDeterminismTest, SingleShardReproducesQueryEngineBitForBit) {
  // Partition(1) aliases the base file and runs no exchange: counters,
  // per-query IO and total IO must equal a sequential RunReverseSkyline per
  // query (the single-shard path that replaced the plain engine), not just
  // rows.
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    const std::vector<ReverseSkylineResult> want = RunSequential(algo);
    IoStats want_total_io;
    for (const ReverseSkylineResult& r : want) want_total_io += r.stats.io;
    Fixture fx(algo, 1);
    ShardedBatchResult got = fx.Run();
    ASSERT_EQ(got.results.size(), want.size());
    for (size_t i = 0; i < got.results.size(); ++i) {
      EXPECT_TRUE(got.statuses[i].ok()) << "query " << i;
      EXPECT_EQ(got.results[i].rows, want[i].rows) << "query " << i;
      EXPECT_EQ(got.results[i].stats.io, want[i].stats.io) << "query " << i;
      EXPECT_EQ(got.results[i].stats.checks, want[i].stats.checks)
          << "query " << i;
      EXPECT_EQ(got.results[i].stats.pair_tests, want[i].stats.pair_tests)
          << "query " << i;
      EXPECT_EQ(got.results[i].stats.result_size, want[i].stats.result_size)
          << "query " << i;
    }
    EXPECT_EQ(got.total_io, want_total_io);
    EXPECT_EQ(got.total_messages, MessageStats{});
    EXPECT_EQ(fx.sharded->partition_io().Total(), 0u);  // file aliased
  }
}

TEST(ShardedDeterminismTest, WorkerCountAndCacheDoNotChangeResults) {
  for (int shards : {2, 4}) {
    Fixture fx(Algorithm::kSRS, shards);
    EngineOptions base;
    base.num_workers = 1;
    const ShardedBatchResult want = fx.Run(base);
    for (size_t workers : {2u, 5u}) {
      for (uint64_t cache : {0u, 64u}) {
        EngineOptions opts;
        opts.num_workers = workers;
        opts.cache_pages = cache;
        ShardedBatchResult got = fx.Run(opts);
        ExpectSameRows(got, want,
                       "shards=" + std::to_string(shards) + " workers=" +
                           std::to_string(workers) + " cache=" +
                           std::to_string(cache));
        // Counters are worker-count independent for a fixed shard count.
        for (size_t i = 0; i < got.results.size(); ++i) {
          EXPECT_EQ(got.results[i].stats.checks, want.results[i].stats.checks)
              << "query " << i;
        }
        EXPECT_EQ(got.total_messages, want.total_messages);
      }
    }
  }
}

TEST(ShardedDeterminismTest, SharedScanMatchesPerQueryExecution) {
  for (int shards : {1, 3}) {
    Fixture fx(Algorithm::kBRS, shards);
    const ShardedBatchResult want = fx.Run();
    EngineOptions opts;
    opts.shared_scan = true;
    opts.shared_scan_group = 4;
    ShardedBatchResult got = fx.Run(opts);
    ExpectSameRows(got, want, "shared_scan shards=" + std::to_string(shards));
    EXPECT_GT(got.shared_scan_groups, 0u);
    EXPECT_EQ(got.total_messages, want.total_messages);
  }
}

TEST(ShardedDeterminismTest, ReplicaFailoverKeepsResultsBitIdentical) {
  // One dead-ish replica among two: every query must still produce the
  // clean rows, with failovers actually exercised.
  for (int shards : {1, 3}) {
    Fixture fx(Algorithm::kSRS, shards);
    const ShardedBatchResult want = fx.Run();

    // Replica 0 has probabilistic bad sectors plus a guaranteed-dead page
    // in every shard file; replica 1 is healthy. Recovery must come from
    // page-granular failover alone (no clean-view re-runs).
    FaultConfig lossy;
    lossy.seed = 4242;
    lossy.data_loss_p = 1e-3;
    for (int s = 0; s < shards; ++s) {
      lossy.bad_pages.insert({fx.sharded->shard(s).file(), 0});
    }
    EngineOptions opts;
    opts.rs.resilience.replicas = 2;
    opts.replica_faults = {lossy, FaultConfig{}};
    ShardedBatchResult got = fx.Run(opts);
    EXPECT_EQ(got.num_failed(), 0u) << got.first_error();
    ExpectSameRows(got, want, "failover shards=" + std::to_string(shards));
    EXPECT_GT(got.total_io.failovers, 0u)
        << "fault config too weak to exercise resilience";
    EXPECT_GT(got.total_io.replica_reads[1], 0u);

    // And again: the faulty run itself is deterministic.
    ShardedBatchResult again = fx.Run(opts);
    ExpectSameRows(got, again, "failover-repeat");
    EXPECT_EQ(got.total_io, again.total_io);
    EXPECT_EQ(got.tasks_retried, again.tasks_retried);
  }
}

TEST(ShardedDeterminismTest, FaultedSingleReplicaFailsQueriesInIsolation) {
  // Unrecoverable data loss on the only replica: affected queries fail,
  // the rest still match the clean rows — per-query isolation — and the
  // outcome is identical across worker counts.
  Fixture fx(Algorithm::kBRS, 3);
  const ShardedBatchResult want = fx.Run();

  EngineOptions opts;
  opts.faults.seed = 1009;
  opts.faults.transient_read_p = 0.02;
  opts.rs.resilience.retry.max_attempts = 1;
  opts.num_workers = 3;
  ShardedBatchResult got = fx.Run(opts);
  size_t failed = 0;
  for (size_t i = 0; i < got.results.size(); ++i) {
    if (!got.statuses[i].ok()) {
      ++failed;
      EXPECT_TRUE(got.statuses[i].IsStorageFault()) << got.statuses[i];
    } else {
      EXPECT_EQ(got.results[i].rows, want.results[i].rows) << "query " << i;
    }
  }
  EXPECT_GT(failed, 0u) << "fault config too weak";
  EXPECT_LT(failed, got.results.size()) << "fault config too strong";

  opts.num_workers = 1;
  ShardedBatchResult serial = fx.Run(opts);
  ExpectSameRows(got, serial, "worker-invariance under faults");
}

TEST(ShardedDeterminismTest, MessageLedgerIsConsistent) {
  Fixture fx(Algorithm::kBRS, 4);
  ShardedBatchResult got = fx.Run();
  MessageStats sum;
  for (const ShardQueryBreakdown& b : got.breakdown) {
    // 3 rounds whenever the exchange ran for this query.
    if (b.messages.messages > 0) EXPECT_EQ(b.messages.rounds, 3u);
    sum += b.messages;
  }
  EXPECT_EQ(sum, got.total_messages);
  EXPECT_GT(got.total_messages.messages, 0u);
  EXPECT_GT(got.total_messages.bytes, 0u);
  EXPECT_GT(got.ExchangeModeledMillis(), 0.0);
  EXPECT_GT(got.ModeledMakespanMillis(), got.ExchangeModeledMillis());

  // Per-shard candidate counts cover every shard and sum to at least the
  // merged result size (local skylines over-approximate the global one).
  for (size_t q = 0; q < got.results.size(); ++q) {
    uint64_t cands = 0;
    for (uint64_t c : got.breakdown[q].shard_candidates) cands += c;
    EXPECT_GE(cands, got.results[q].rows.size()) << "query " << q;
  }
}

}  // namespace
}  // namespace nmrs
