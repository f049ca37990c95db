#include "exec/sharded_engine.h"

#include <atomic>
#include <numeric>
#include <vector>

#include "common/sync.h"
#include "data/generators.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "storage/disk_view.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  WaitGroup wg;
  constexpr int kTasks = 500;
  wg.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, WorkerIndexIsStableAndScoped) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.CurrentWorkerIndex(), -1);  // not a pool thread
  std::atomic<bool> ok{true};
  WaitGroup wg;
  constexpr int kTasks = 64;
  wg.Add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      const int w = pool.CurrentWorkerIndex();
      if (w < 0 || w >= 3) ok.store(false);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelChunksTest, CoversEveryChunkExactlyOnce) {
  constexpr size_t kChunks = 57;
  // Without an executor (temporary threads) and with a pool.
  {
    std::vector<std::atomic<int>> hits(kChunks);
    ParallelChunks(nullptr, 4, kChunks,
                   [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1);
  }
  {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(kChunks);
    ParallelChunks(&pool, 4, kChunks,
                   [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1);
  }
}

TEST(DiskViewTest, ReadsBaseFilesChargingViewStats) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(base.AppendPage(f, page).ok());
  base.ResetStats();

  DiskView view(&base);
  Page out(0);
  ASSERT_TRUE(view.ReadPage(f, 0, &out).ok());
  ASSERT_TRUE(view.ReadPage(f, 1, &out).ok());
  EXPECT_EQ(out.size(), base.page_size());
  // First read random, second sequential — charged to the view only.
  EXPECT_EQ(view.stats().rand_reads, 1u);
  EXPECT_EQ(view.stats().seq_reads, 1u);
  EXPECT_EQ(base.stats().Total(), 0u);
}

TEST(DiskViewTest, RejectsWritesToBaseFiles) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView view(&base);
  EXPECT_EQ(view.WritePage(f, 0, page).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.DeleteFile(f).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.TruncateFile(f).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.AppendPage(f, page).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DiskViewTest, LocalScratchFilesAreWritableAndDoNotCollide) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView view(&base);
  const FileId scratch = view.CreateFile("scratch");
  EXPECT_GE(scratch, base.next_file_id());
  EXPECT_FALSE(base.FileExists(scratch));
  ASSERT_TRUE(view.AppendPage(scratch, page).ok());
  EXPECT_EQ(view.NumPages(scratch), 1u);
  EXPECT_EQ(view.NumPages(f), 1u);
  EXPECT_EQ(view.TotalPages(), 2u);
  Page out(0);
  ASSERT_TRUE(view.ReadPage(scratch, 0, &out).ok());
  ASSERT_TRUE(view.DeleteFile(scratch).ok());
  EXPECT_FALSE(view.FileExists(scratch));
  EXPECT_TRUE(view.FileExists(f));
}

TEST(DiskViewTest, ViewsKeepIndependentArmPositions) {
  SimulatedDisk base;
  const FileId f = base.CreateFile("data");
  Page page(base.page_size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(base.AppendPage(f, page).ok());

  DiskView a(&base);
  DiskView b(&base);
  Page out(0);
  ASSERT_TRUE(a.ReadPage(f, 0, &out).ok());
  ASSERT_TRUE(a.ReadPage(f, 1, &out).ok());
  ASSERT_TRUE(b.ReadPage(f, 2, &out).ok());  // fresh arm: random
  ASSERT_TRUE(a.ReadPage(f, 2, &out).ok());  // continues a's arm: seq
  EXPECT_EQ(a.stats().seq_reads, 2u);
  EXPECT_EQ(a.stats().rand_reads, 1u);
  EXPECT_EQ(b.stats().seq_reads, 0u);
  EXPECT_EQ(b.stats().rand_reads, 1u);
}

// ---------------------------------------------------------------------------
// Determinism regression: the engine over an unpartitioned dataset
// (Partition(prepared, {}), whose single shard aliases the base file) must
// return identical result sets and identical aggregate IO totals for 1, 2,
// and 8 workers, and both must equal a plain sequential run of every query
// — counters included, with no exchange traffic and no partitioning IO.
// ---------------------------------------------------------------------------

struct Workload {
  Workload(uint64_t seed, uint64_t rows)
      : instance(seed, rows, {6, 7, 8}) {
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 24; ++i) {
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

void ExpectBatchesIdentical(const ShardedBatchResult& a,
                            const ShardedBatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rows, b.results[i].rows) << "query " << i;
    EXPECT_EQ(a.results[i].stats.io, b.results[i].stats.io) << "query " << i;
    EXPECT_EQ(a.results[i].stats.checks, b.results[i].stats.checks)
        << "query " << i;
  }
  EXPECT_EQ(a.total_io, b.total_io);
}

TEST(QueryEngineTest, WorkerCountDoesNotChangeResultsOrIo) {
  Workload wl(97, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
    EXPECT_EQ(one.partition_io().Total(), 0u);  // file aliased

    // Sequential ground truth, charged to a dedicated view so the base
    // disk stays frozen.
    std::vector<ReverseSkylineResult> expected;
    IoStats expected_io;
    {
      DiskView view(&disk);
      PreparedDataset local{StoredDataset(&view, prepared->stored.file(),
                                          prepared->stored.schema(),
                                          prepared->stored.num_rows()),
                            prepared->attr_order, 0};
      for (const Object& q : wl.queries) {
        auto r = RunReverseSkyline(local, wl.instance.space, q, algo,
                                   SmallMemory());
        ASSERT_TRUE(r.ok()) << r.status();
        expected_io += r->stats.io;
        expected.push_back(std::move(*r));
      }
    }

    ShardedBatchResult first;
    bool have_first = false;
    for (size_t workers : {1u, 2u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs = SmallMemory();
      ShardedQueryEngine engine(one, wl.instance.space, algo, opts);
      auto batch = engine.RunBatch(wl.queries);
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_EQ(batch->results.size(), wl.queries.size());

      EXPECT_EQ(batch->total_io, expected_io)
          << AlgorithmName(algo) << " with " << workers << " workers";
      EXPECT_EQ(batch->total_messages, MessageStats{});
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(batch->results[i].rows, expected[i].rows)
            << AlgorithmName(algo) << " query " << i << " with " << workers
            << " workers";
        EXPECT_EQ(batch->results[i].stats.io, expected[i].stats.io);
        EXPECT_EQ(batch->results[i].stats.checks, expected[i].stats.checks);
        EXPECT_EQ(batch->results[i].stats.pair_tests,
                  expected[i].stats.pair_tests);
        EXPECT_EQ(batch->results[i].stats.result_size,
                  expected[i].stats.result_size);
        EXPECT_EQ(batch->breakdown[i].messages, MessageStats{});
      }

      if (!have_first) {
        first = std::move(*batch);
        have_first = true;
      } else {
        ExpectBatchesIdentical(first, *batch);
      }
    }
  }
}

TEST(QueryEngineTest, AggregateIoEqualsSumOfPerQueryIo) {
  Workload wl(31, 3000);
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kSRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  EngineOptions opts;
  opts.num_workers = 4;
  opts.rs = SmallMemory();
  ShardedQueryEngine engine(one, wl.instance.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  IoStats sum;
  double busy = 0;
  for (const auto& r : batch->results) sum += r.stats.io;
  for (double w : batch->shard_worker_modeled_millis[0]) busy += w;
  EXPECT_EQ(batch->total_io, sum);
  EXPECT_GT(batch->ModeledMakespanMillis(), 0.0);
  EXPECT_LE(batch->ModeledMakespanMillis(), busy + 1e-9);
  EXPECT_GT(batch->ModeledQps(), 0.0);
}

// Intra-query phase-1 chunking must leave results, check totals, and IO
// bit-identical to the sequential execution.
TEST(QueryEngineTest, IntraQueryParallelismIsDeterministic) {
  Workload wl(7, 5000);
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    SimulatedDisk seq_disk;
    auto prepared = PrepareDataset(&seq_disk, wl.instance.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();

    for (const Object& q : wl.queries) {
      DiskView seq_view(&seq_disk);
      PreparedDataset seq_local{
          StoredDataset(&seq_view, prepared->stored.file(),
                        prepared->stored.schema(),
                        prepared->stored.num_rows()),
          prepared->attr_order, 0};
      auto seq = RunReverseSkyline(seq_local, wl.instance.space, q, algo,
                                   SmallMemory());
      ASSERT_TRUE(seq.ok()) << seq.status();

      DiskView par_view(&seq_disk);
      PreparedDataset par_local{
          StoredDataset(&par_view, prepared->stored.file(),
                        prepared->stored.schema(),
                        prepared->stored.num_rows()),
          prepared->attr_order, 0};
      RSOptions par_opts = SmallMemory();
      par_opts.num_threads = 4;  // no executor: temporary threads
      auto par = RunReverseSkyline(par_local, wl.instance.space, q, algo,
                                   par_opts);
      ASSERT_TRUE(par.ok()) << par.status();

      EXPECT_EQ(par->rows, seq->rows) << AlgorithmName(algo);
      EXPECT_EQ(par->stats.checks, seq->stats.checks) << AlgorithmName(algo);
      EXPECT_EQ(par->stats.pair_tests, seq->stats.pair_tests);
      EXPECT_EQ(par->stats.phase1_survivors, seq->stats.phase1_survivors);
      EXPECT_EQ(par->stats.io, seq->stats.io) << AlgorithmName(algo);
    }
  }
}

TEST(QueryEngineTest, EngineWithIntraQueryThreadsMatchesSequential) {
  Workload wl(13, 4000);
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, wl.instance.data, Algorithm::kTRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  EngineOptions plain;
  plain.num_workers = 1;
  plain.rs = SmallMemory();
  ShardedQueryEngine engine1(one, wl.instance.space, Algorithm::kTRS, plain);
  auto expected = engine1.RunBatch(wl.queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  EngineOptions intra;
  intra.num_workers = 4;
  intra.rs = SmallMemory();
  intra.rs.num_threads = 2;  // engine wires its pool as the executor
  ShardedQueryEngine engine4(one, wl.instance.space, Algorithm::kTRS, intra);
  auto batch = engine4.RunBatch(wl.queries);
  ASSERT_TRUE(batch.ok()) << batch.status();

  ExpectBatchesIdentical(*expected, *batch);
}

}  // namespace
}  // namespace nmrs
