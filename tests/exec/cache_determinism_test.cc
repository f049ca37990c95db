#include <string_view>
#include <vector>

#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "gtest/gtest.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

// ---------------------------------------------------------------------------
// Cache determinism regression (ISSUE 2): enabling the shared buffer pool
// must never change *what* a query returns, only what the reads cost.
// Concretely:
//   - result rows and dominance-check counts are bit-identical with the
//     pool on or off, at 1 and 8 workers;
//   - with a no-eviction cache (capacity >= dataset pages), total charged
//     reads/writes are invariant across worker counts, and the pool's
//     misses equal the number of distinct dataset pages (single-flight);
//   - charged reads with the cache never exceed the uncached run;
//   - at 1 worker any fixed configuration is exactly reproducible.
// See docs/CACHING.md for why per-query IO attribution and the seq/rand
// split are excluded at >1 worker.
// ---------------------------------------------------------------------------

struct Workload {
  Workload(uint64_t seed, uint64_t rows)
      : instance(seed, rows, {6, 7, 8}) {
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 16; ++i) {
      queries.push_back(SampleUniformQuery(instance.data, rng));
    }
  }

  RandomInstance instance;
  std::vector<Object> queries;
};

RSOptions SmallMemory() {
  RSOptions rs;
  rs.memory = MemoryBudget{2};  // force multiple phase-1/phase-2 batches
  return rs;
}

ShardedBatchResult RunWith(const PreparedDataset& prepared,
                           const SimilaritySpace& space, Algorithm algo,
                           const std::vector<Object>& queries, size_t workers,
                           uint64_t cache_pages) {
  EngineOptions opts;
  opts.num_workers = workers;
  opts.rs = SmallMemory();
  opts.cache_pages = cache_pages;
  const ShardedDataset one = ShardedDataset::Partition(prepared, {}).value();
  ShardedQueryEngine engine(one, space, algo, opts);
  auto batch = engine.RunBatch(queries);
  EXPECT_TRUE(batch.ok()) << batch.status();
  return std::move(*batch);
}

void ExpectSameAnswers(const ShardedBatchResult& got,
                       const ShardedBatchResult& want,
                       std::string_view label) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(got.results[i].rows, want.results[i].rows)
        << label << " query " << i;
    EXPECT_EQ(got.results[i].stats.checks, want.results[i].stats.checks)
        << label << " query " << i;
  }
}

TEST(CacheDeterminismTest, ResultsIdenticalWithPoolOnAndOff) {
  Workload wl(211, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const uint64_t pages = prepared->stored.num_pages();

    const ShardedBatchResult off =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 1, 0);
    for (size_t workers : {1u, 8u}) {
      for (uint64_t capacity : {pages, pages / 4 + 1}) {
        const ShardedBatchResult on =
            RunWith(*prepared, wl.instance.space, algo, wl.queries, workers,
                    capacity);
        ExpectSameAnswers(on, off, AlgorithmName(algo));
        // A cache can only remove charged reads, never add them; writes
        // (per-query scratch spills, which bypass the pool) are untouched.
        EXPECT_LE(on.total_io.TotalReads(), off.total_io.TotalReads())
            << AlgorithmName(algo) << " workers=" << workers
            << " capacity=" << capacity;
        EXPECT_EQ(on.total_io.TotalWrites(), off.total_io.TotalWrites());
      }
    }
  }
}

TEST(CacheDeterminismTest, FullCacheTotalsAreWorkerCountInvariant) {
  Workload wl(212, 5000);
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kTRS}) {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const uint64_t pages = prepared->stored.num_pages();

    // Capacity is split evenly across the pool's shards and pages hash to
    // shards, so "never evicts" needs every shard to be able to hold every
    // page: pages * num_shards frames. Then misses == distinct pages
    // touched regardless of how workers interleave (single-flight: the
    // shard mutex is held across the fetch, so exactly one worker is
    // charged per page).
    const uint64_t no_evict = pages * 8;
    const ShardedBatchResult one =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 1, no_evict);
    const ShardedBatchResult eight =
        RunWith(*prepared, wl.instance.space, algo, wl.queries, 8, no_evict);

    ExpectSameAnswers(eight, one, AlgorithmName(algo));
    EXPECT_EQ(one.total_io.cache_misses, pages) << AlgorithmName(algo);
    EXPECT_EQ(eight.total_io.cache_misses, pages) << AlgorithmName(algo);
    EXPECT_EQ(one.total_io.cache_evictions, 0u);
    EXPECT_EQ(eight.total_io.cache_evictions, 0u);
    EXPECT_EQ(one.total_io.TotalReads(), eight.total_io.TotalReads())
        << AlgorithmName(algo);
    EXPECT_EQ(one.total_io.TotalWrites(), eight.total_io.TotalWrites())
        << AlgorithmName(algo);
    // Every lookup past the cold set was served from memory: lookups =
    // hits + misses, and only misses reached a disk (all 16 queries scan
    // the same file, so there are far more lookups than pages).
    EXPECT_GT(one.total_io.cache_hits, 0u);
    EXPECT_EQ(one.total_io.cache_hits, eight.total_io.cache_hits);
  }
}

TEST(CacheDeterminismTest, SingleWorkerRunsAreReproducible) {
  Workload wl(213, 4000);
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const uint64_t quarter = prepared->stored.num_pages() / 4 + 1;

  // Under eviction pressure the totals depend on the access interleaving —
  // but with one worker there is only one interleaving, so two runs of the
  // same configuration must match IoStats field for field.
  const ShardedBatchResult a = RunWith(*prepared, wl.instance.space,
                                       Algorithm::kTRS, wl.queries, 1, quarter);
  const ShardedBatchResult b = RunWith(*prepared, wl.instance.space,
                                       Algorithm::kTRS, wl.queries, 1, quarter);
  ExpectSameAnswers(a, b, "trs");
  EXPECT_EQ(a.total_io, b.total_io);
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
  }
}

TEST(CacheDeterminismTest, EnginePoolStatsMatchBatchTotals) {
  Workload wl(214, 3000);
  SimulatedDisk disk;
  auto prepared =
      PrepareDataset(&disk, wl.instance.data, Algorithm::kBRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions opts;
  opts.num_workers = 4;
  opts.rs = SmallMemory();
  opts.cache_pages = prepared->stored.num_pages() * 8;
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kBRS, opts);
  ASSERT_NE(engine.buffer_pool(0), nullptr);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // The pool's own counters and the per-query accumulated cache fields are
  // two views of the same events.
  const CacheStats pool_stats = engine.buffer_pool(0)->stats();
  EXPECT_EQ(pool_stats.hits, batch->total_io.cache_hits);
  EXPECT_EQ(pool_stats.misses, batch->total_io.cache_misses);
  EXPECT_EQ(pool_stats.evictions, batch->total_io.cache_evictions);
  EXPECT_GT(batch->total_io.CacheHitRatio(), 0.0);
}

TEST(CacheDeterminismTest, NoCacheEngineIsSeedIdentical) {
  // cache_pages == 0 must leave the engine bit-identical to the pre-cache
  // behavior: no pool object, no cache fields in any stats.
  Workload wl(215, 2000);
  SimulatedDisk disk;
  auto prepared =
      PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs = SmallMemory();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kTRS, opts);
  EXPECT_EQ(engine.buffer_pool(0), nullptr);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->total_io.cache_hits, 0u);
  EXPECT_EQ(batch->total_io.cache_misses, 0u);
  EXPECT_EQ(batch->total_io.cache_evictions, 0u);
}

}  // namespace
}  // namespace nmrs
