// Concurrency stress for the parallel batch engine, meant to run under
// ThreadSanitizer (cmake -DNMRS_TSAN=ON, see ci.sh) as well as in plain
// builds. Deliberately gtest-free: the TSan build then only contains
// instrumented nmrs code, avoiding false positives from uninstrumented
// prebuilt test libraries. Exits 0 on success, aborts on any violation.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "data/generators.h"
#include "db/database.h"
#include "exec/sharded_engine.h"
#include "exec/thread_pool.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"
#include "storage/buffer_pool.h"
#include "storage/disk_view.h"
#include "storage/paged_reader.h"

namespace nmrs {
namespace {

// Hammer the work-stealing pool, including tasks that submit nested tasks
// (the shape ParallelChunks produces from inside a pool worker).
void StressThreadPool() {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  WaitGroup wg;
  constexpr int kOuter = 200;
  constexpr int kInner = 10;
  wg.Add(kOuter * (1 + kInner));
  for (int i = 0; i < kOuter; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      for (int j = 0; j < kInner; ++j) {
        pool.Submit([&] {
          count.fetch_add(1);
          wg.Done();
        });
      }
      wg.Done();
    });
  }
  wg.Wait();
  NMRS_CHECK_EQ(count.load(), kOuter * (1 + kInner));
  std::printf("pool stress: %d tasks ok\n", count.load());
}

// Concurrent ReadPage on one shared SimulatedDisk: the accounting mutex
// must keep counters exact (the seq/rand split depends on interleaving,
// the total must not).
void StressSharedDiskReaders() {
  SimulatedDisk disk;
  const FileId f = disk.CreateFile("shared");
  Page page(disk.page_size());
  constexpr uint64_t kPages = 8;
  for (uint64_t p = 0; p < kPages; ++p) {
    NMRS_CHECK(disk.AppendPage(f, page).ok());
  }
  disk.ResetStats();

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, f, t] {
      Page out(0);
      for (int i = 0; i < kReadsPerThread; ++i) {
        NMRS_CHECK(
            disk.ReadPage(f, static_cast<PageId>((t + i) % kPages), &out)
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  NMRS_CHECK_EQ(disk.stats().TotalReads(),
                static_cast<uint64_t>(kThreads) * kReadsPerThread);
  std::printf("shared-disk readers: %llu reads ok\n",
              static_cast<unsigned long long>(disk.stats().TotalReads()));
}

// Concurrent DiskViews over one frozen base: reads plus view-local scratch
// writes, with per-view accounting staying exact.
void StressDiskViews() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("base");
  Page page(base.page_size());
  constexpr uint64_t kPages = 16;
  for (uint64_t p = 0; p < kPages; ++p) {
    NMRS_CHECK(base.AppendPage(f, page).ok());
  }
  base.ResetStats();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base, f] {
      DiskView view(&base);
      Page out(0);
      const FileId scratch = view.CreateFile("scratch");
      for (int round = 0; round < 50; ++round) {
        for (uint64_t p = 0; p < kPages; ++p) {
          NMRS_CHECK(view.ReadPage(f, p, &out).ok());
        }
        NMRS_CHECK(view.AppendPage(scratch, out).ok());
      }
      NMRS_CHECK_EQ(view.stats().TotalReads(), 50u * kPages);
      NMRS_CHECK_EQ(view.stats().TotalWrites(), 50u);
    });
  }
  for (auto& t : threads) t.join();
  NMRS_CHECK_EQ(base.stats().Total(), 0u);  // views never touch base stats
  std::printf("disk views: %d concurrent views ok\n", kThreads);
}

// Hammer one shared BufferPool from 8 threads, each reading through its own
// DiskView + PagedReader and occasionally holding pins, under heavy
// eviction pressure (capacity far below the file size). Checks the pool's
// global accounting against the per-thread sums and the charged disk reads.
void StressSharedBufferPool() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("hot");
  constexpr uint64_t kPages = 64;
  {
    Page page(base.page_size());
    for (uint64_t p = 0; p < kPages; ++p) {
      page[0] = static_cast<uint8_t>(p);
      NMRS_CHECK(base.AppendPage(f, page).ok());
    }
  }
  base.ResetStats();

  BufferPoolOptions opts;
  opts.capacity_pages = kPages / 4;  // heavy eviction pressure
  opts.num_shards = 8;
  BufferPool pool(&base, opts);

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::vector<CacheStats> per_thread(kThreads);
  std::vector<uint64_t> view_reads(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DiskView view(&base);
      PagedReader reader(&view, &pool);
      Page out(0);
      for (int round = 0; round < kRounds; ++round) {
        // Mixed access: a short scan, a strided sweep, and a pinned read.
        const PageId start = static_cast<PageId>((t * 13 + round) % kPages);
        for (uint64_t i = 0; i < 6; ++i) {
          const PageId p = (start + i) % kPages;
          NMRS_CHECK(reader.ReadPage(f, p, &out).ok());
          NMRS_CHECK_EQ(out[0], static_cast<uint8_t>(p));
        }
        const PageId strided = (start * 7 + 3) % kPages;
        NMRS_CHECK(reader.ReadPage(f, strided, &out).ok());
        auto pinned = pool.Pin(&view, f, start);
        if (pinned.ok()) {  // a transiently all-pinned shard is legitimate
          NMRS_CHECK_EQ(pinned->page()[0], static_cast<uint8_t>(start));
          pinned->Release();
        } else {
          NMRS_CHECK(pinned.status().IsResourceExhausted())
              << pinned.status();
        }
      }
      per_thread[t] = reader.cache_stats();
      view_reads[t] = view.stats().TotalReads();
    });
  }
  for (auto& t : threads) t.join();

  // Per-reader attribution must add up to the pool's own counters for the
  // traffic that went through the readers (the direct Pin calls are in the
  // pool stats only), and every charged view read must be a reader miss.
  CacheStats reader_sum;
  uint64_t charged = 0;
  for (int t = 0; t < kThreads; ++t) {
    reader_sum += per_thread[t];
    charged += view_reads[t];
  }
  const CacheStats pool_stats = pool.stats();
  NMRS_CHECK_EQ(reader_sum.Lookups(),
                static_cast<uint64_t>(kThreads) * kRounds * 7);
  NMRS_CHECK(pool_stats.Lookups() >= reader_sum.Lookups());
  NMRS_CHECK(pool_stats.misses >= reader_sum.misses);
  // Charged reads = reader misses + direct-Pin misses, nothing else.
  NMRS_CHECK_EQ(charged, pool_stats.misses);
  NMRS_CHECK(pool.PagesCached() <= opts.capacity_pages);
  NMRS_CHECK(base.stats().Total() == 0u);  // views charge themselves
  std::printf("shared buffer pool: %llu lookups, %llu misses, %llu"
              " evictions ok\n",
              static_cast<unsigned long long>(pool_stats.Lookups()),
              static_cast<unsigned long long>(pool_stats.misses),
              static_cast<unsigned long long>(pool_stats.evictions));
}

// The engine path with a shared cache: results must match the uncached
// engine at every worker count, and total charged reads must not exceed it.
void StressEngineWithSharedCache() {
  Rng rng(99);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  ShardedBatchResult uncached;
  {
    EngineOptions opts;
    opts.num_workers = 1;
    opts.rs.memory = MemoryBudget{2};
    ShardedQueryEngine engine(one, space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    uncached = std::move(*batch);
  }
  for (size_t workers : {1u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs.memory = MemoryBudget{2};
    opts.cache_pages = prepared->stored.num_pages();  // eviction pressure
    ShardedQueryEngine engine(one, space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == uncached.results[i].rows);
    }
    NMRS_CHECK(batch->total_io.TotalReads() <= uncached.total_io.TotalReads());
  }
  std::printf("engine with shared cache: %zu queries identical\n",
              queries.size());
}

// Shared scans under contention: 8 workers each drive a group's shared
// phase-1 pass (one kernel + gather cache per group) against the shared
// buffer pool, concurrently with other groups. Per-query rows and check
// counts must match per-query execution, and the group-once IO accounting
// must add up, at every worker count.
void StressSharedScanBatch() {
  Rng rng(4242);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  ShardedBatchResult reference;
  {
    EngineOptions opts;
    opts.num_workers = 1;
    opts.rs.memory = MemoryBudget{2};
    opts.rs.use_kernels = true;
    ShardedQueryEngine engine(one, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok());
    reference = std::move(*batch);
  }
  for (size_t workers : {1u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.rs.memory = MemoryBudget{2};
    opts.rs.use_kernels = true;
    opts.shared_scan = true;
    opts.shared_scan_group = 8;  // 64 queries -> 8 concurrent groups
    opts.cache_pages = prepared->stored.num_pages();
    ShardedQueryEngine engine(one, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok());
    NMRS_CHECK_EQ(batch->shared_scan_groups, queries.size() / 8);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      NMRS_CHECK_EQ(batch->results[i].stats.checks,
                    reference.results[i].stats.checks);
      NMRS_CHECK_EQ(batch->results[i].stats.pair_tests,
                    reference.results[i].stats.pair_tests);
    }
    IoStats sum = batch->shared_io;
    for (const auto& r : batch->results) sum += r.stats.io;
    NMRS_CHECK(sum == batch->total_io);
  }
  std::printf("shared-scan batch: %zu queries in %zu groups identical\n",
              queries.size(), queries.size() / 8);
}

// Full engine: batch fan-out plus intra-query chunks on the same pool,
// checked for worker-count independence.
void StressIntraQueryBatch() {
  Rng rng(1234);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(4000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  // Kernels on runs the chunked TRS probe: per-chunk kernels over the
  // batch's shared leaf block, each chunk on a private tree copy.
  for (bool use_kernels : {false, true}) {
    ShardedBatchResult reference;
    bool have_reference = false;
    for (size_t workers : {1u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs.memory = MemoryBudget{2};
      opts.rs.num_threads = workers > 1 ? 2 : 1;
      opts.rs.use_kernels = use_kernels;
      ShardedQueryEngine engine(one, space, Algorithm::kTRS, opts);
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      if (!have_reference) {
        reference = std::move(*batch);
        have_reference = true;
        continue;
      }
      NMRS_CHECK(batch->total_io == reference.total_io);
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
        NMRS_CHECK(batch->results[i].stats.io ==
                   reference.results[i].stats.io);
      }
    }
    std::printf("intra-query batch (kernels %s): %zu queries identical "
                "across worker counts\n",
                use_kernels ? "on" : "off", queries.size());
  }
}

// The fault path under contention: 8 workers share the batch quarantine
// log and fault-counter accounting while transients, bad pages and
// clean-view retries fire. Outcomes must be identical across worker
// counts and runs (the docs/ROBUSTNESS.md determinism contract).
void StressFaultBatch() {
  Rng rng(777);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(6000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  EngineOptions base;
  base.faults.seed = 4242;
  base.faults.transient_read_p = 0.03;
  base.faults.bad_pages.insert({prepared->stored.file(), 1});
  base.rs.resilience.retry.max_attempts = 2;
  base.max_query_retries = 1;

  ShardedBatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u, 8u}) {
    EngineOptions opts = base;
    opts.num_workers = workers;
    ShardedQueryEngine engine(one, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!batch->statuses[i].ok()) {
        NMRS_CHECK(batch->statuses[i].IsStorageFault()) << batch->statuses[i];
      }
    }
    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
      continue;
    }
    NMRS_CHECK(batch->total_io == reference.total_io);
    NMRS_CHECK(batch->quarantined == reference.quarantined);
    NMRS_CHECK_EQ(batch->tasks_retried, reference.tasks_retried);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io);
      NMRS_CHECK(batch->statuses[i].ToString() ==
                 reference.statuses[i].ToString());
    }
  }
  std::printf("fault batch: %zu queries, %llu retried, %zu quarantined, "
              "identical across worker counts\n",
              queries.size(),
              static_cast<unsigned long long>(reference.tasks_retried),
              reference.quarantined.size());
}

// Concurrent page-granular failover against one shared BufferPool: every
// thread reads through its own corrupting primary replica with a clean
// failover replica behind it, all routed through the same pool. Failing
// reads evict shared frames while other threads fetch and heal them — the
// shared-cache race the replica layer must survive (and the reason fault
// BATCHES run shared-nothing; standalone readers may still share a pool).
// Every read must come back verified, from whichever replica had good
// bytes.
void StressConcurrentFailover() {
  SimulatedDisk base;
  const FileId f = base.CreateFile("sealed");
  constexpr uint64_t kPages = 64;
  for (uint64_t p = 0; p < kPages; ++p) {
    Page page(base.page_size());
    for (size_t i = 0; i < page.size(); ++i) {
      page[i] = static_cast<uint8_t>(p + i);
    }
    page.Seal();
    NMRS_CHECK(base.AppendPage(f, page).ok());
  }

  BufferPoolOptions popts;
  popts.capacity_pages = 16;  // eviction pressure on top of the healing
  BufferPool pool(&base, popts);

  constexpr int kThreads = 8;
  ReplicaSetOptions rso;
  rso.num_replicas = 2;
  rso.num_workers = kThreads;
  FaultConfig corrupting;
  corrupting.seed = 31337;
  corrupting.corrupt_p = 0.3;
  rso.faults = {corrupting, FaultConfig{}};
  ReplicaSet set(&base, rso);

  std::atomic<uint64_t> failovers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, &pool, &failovers, f, t] {
      std::vector<std::unique_ptr<FaultyDisk>> wrappers;
      auto disks = set.MakeQueryDisks(t, static_cast<uint64_t>(t), &wrappers);
      PagedReaderOptions opts;
      opts.verify_checksums = true;
      opts.failover = {disks[1]};
      PagedReader reader(disks[0], &pool, opts);
      Page out(0);
      for (int i = 0; i < 400; ++i) {
        const PageId p = static_cast<PageId>((t * 7 + i) % kPages);
        NMRS_CHECK(reader.ReadPage(f, p, &out).ok())
            << "thread " << t << " page " << p;
        NMRS_CHECK(out.VerifySeal()) << "thread " << t << " page " << p;
      }
      failovers.fetch_add(reader.failovers(), std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  NMRS_CHECK(failovers.load() > 0) << "corrupt_p fired no failover";
  std::printf("concurrent failover: %d threads, %llu failovers, "
              "all reads verified\n",
              kThreads, static_cast<unsigned long long>(failovers.load()));
}

// A replica batch under contention: replica 0 is completely dead, results
// and per-query accounting (failovers included) must still be identical
// across worker counts and repeat runs.
void StressReplicaBatch() {
  Rng rng(888);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(6000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kSRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  EngineOptions base;
  base.rs.resilience.replicas = 2;
  FaultConfig dead;
  dead.seed = 6;
  dead.data_loss_p = 1.0;
  base.replica_faults = {dead, FaultConfig{}};

  ShardedBatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 8u, 8u}) {
    EngineOptions opts = base;
    opts.num_workers = workers;
    ShardedQueryEngine engine(one, space, Algorithm::kSRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
      continue;
    }
    NMRS_CHECK(batch->total_io == reference.total_io);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io);
    }
  }
  NMRS_CHECK(reference.total_io.failovers > 0);
  std::printf("replica batch: %zu queries over a dead replica, %llu "
              "failovers, identical across worker counts\n",
              queries.size(),
              static_cast<unsigned long long>(reference.total_io.failovers));
}

// The overlay executor under contention: 8 workers share the base batch,
// the classification result and the per-(query, user-group) re-check
// scans, with a shared page cache underneath. Every (query, user) answer
// must be bit-identical to rebuilding that user's patched space, and
// invariant across worker counts and overlay group sizes. This is the
// TSan workout for the overlay data structures (the shared alive bitmaps,
// the per-lane modeled-time slots and the fold-in of scan IO).
void StressOverlayBatch() {
  Rng rng(20260809);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Rng orng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(3000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }
  constexpr size_t kUsers = 8;
  std::vector<MatrixOverlay> overlays;
  overlays.reserve(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    overlays.push_back(
        MakeRandomOverlay(space, orng, 0.02 + 0.01 * static_cast<double>(u)));
  }
  std::vector<const MatrixOverlay*> ptrs;
  for (const auto& o : overlays) ptrs.push_back(&o);

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  // Per-user patched-space rebuild: the correctness oracle.
  std::vector<std::vector<std::vector<RowId>>> want(
      queries.size(), std::vector<std::vector<RowId>>(kUsers));
  for (size_t u = 0; u < kUsers; ++u) {
    SimilaritySpace patched = overlays[u].BuildPatchedSpace();
    EngineOptions opts;
    opts.num_workers = 1;
    ShardedQueryEngine engine(one, patched, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    for (size_t q = 0; q < queries.size(); ++q) {
      want[q][u] = batch->results[q].rows;
    }
  }

  for (size_t workers : {1u, 8u, 8u}) {
    EngineOptions opts;
    opts.num_workers = workers;
    opts.overlay_group = workers == 1 ? 3 : 16;
    opts.cache_pages = prepared->stored.num_pages();
    ShardedQueryEngine engine(one, space, Algorithm::kBRS, opts);
    auto ob = engine.RunOverlayBatch(queries, ptrs);
    NMRS_CHECK(ob.ok()) << ob.status();
    NMRS_CHECK(ob->ok()) << ob->first_error();
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t u = 0; u < kUsers; ++u) {
        NMRS_CHECK(ob->results[q][u].rows == want[q][u])
            << "workers " << workers << " query " << q << " user " << u;
      }
    }
    NMRS_CHECK_EQ(ob->sensitive_rows + ob->invariant_rows,
                  data.num_rows() * kUsers);
  }
  std::printf("overlay batch: %zu queries x %zu users identical to "
              "per-user rebuild\n",
              queries.size(), kUsers);
}

// Sharded scatter/gather under maximum scheduling pressure: many workers,
// few queries' worth of (query, shard) tasks per phase, a shared cache per
// shard, plus a run with a dead replica 0 — every combination must produce
// the same rows as the 1-shard run and be worker-count invariant. This is
// the TSan workout for the exchange data structures (per-(query, shard)
// slots, verdict bitmaps, the shared quarantine log and IO ledgers).
void StressShardedBatch() {
  Rng rng(4242);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 7, 8};
  Dataset data = GenerateNormal(5000, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  std::vector<std::vector<RowId>> want;
  for (int shards = 1; shards <= 4; ++shards) {
    ShardPlanOptions plan;
    plan.num_shards = shards;
    auto sharded = ShardedDataset::Partition(*prepared, plan);
    NMRS_CHECK(sharded.ok()) << sharded.status();

    ShardedBatchResult reference;
    bool have_reference = false;
    for (size_t workers : {1u, 8u, 8u}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.cache_pages = 32;
      ShardedQueryEngine engine(*sharded, space, Algorithm::kBRS, opts);
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();
      NMRS_CHECK(batch->ok()) << batch->first_error();
      if (!have_reference) {
        reference = std::move(*batch);
        have_reference = true;
        continue;
      }
      NMRS_CHECK(batch->total_messages == reference.total_messages);
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
      }
    }

    if (shards == 1) {
      for (const auto& r : reference.results) want.push_back(r.rows);
    } else {
      for (size_t i = 0; i < queries.size(); ++i) {
        NMRS_CHECK(reference.results[i].rows == want[i])
            << "shards=" << shards << " query " << i;
      }
    }

    // A dead replica 0 on every shard: page-granular failover must still
    // produce the same rows with all workers fighting over the exchange.
    EngineOptions fopts;
    fopts.num_workers = 8;
    fopts.rs.resilience.replicas = 2;
    FaultConfig dead;
    dead.seed = 6;
    dead.data_loss_p = 1.0;
    fopts.replica_faults = {dead, FaultConfig{}};
    ShardedQueryEngine engine(*sharded, space, Algorithm::kBRS, fopts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    NMRS_CHECK(batch->total_io.failovers > 0);
    for (size_t i = 0; i < queries.size(); ++i) {
      NMRS_CHECK(batch->results[i].rows == want[i]);
    }
  }
  std::printf("sharded batch: %zu queries x shards 1..4, cache + dead "
              "replica, rows identical throughout\n",
              queries.size());
}

// Mutable database under concurrent writers and readers: one writer
// thread streams inserts/deletes (and periodic compactions) while reader
// threads pin snapshots and run batches. Checks: every snapshot is
// internally consistent (row count = base at pin + delta at pin), queries
// on a pinned snapshot are repeatable while mutations continue, and the
// delta's version ordering never exposes a delete whose insert is missing.
void StressMutableDatabase() {
  Rng rng(777);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {6, 5, 7};
  Dataset data = GenerateNormal(400, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  DatabaseOptions opts;
  opts.algo = Algorithm::kTRS;
  opts.engine.num_workers = 2;
  auto db = Database::Open(data, space, opts);
  NMRS_CHECK(db.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mutations{0};

  std::thread writer([&] {
    Rng wrng(1234);
    std::vector<uint64_t> live;
    for (uint64_t k = 0; k < 400; ++k) live.push_back(k);
    for (int i = 0; i < 600; ++i) {
      if (!live.empty() && wrng.Uniform(3) == 0) {
        const size_t pick = wrng.Uniform(live.size());
        NMRS_CHECK((*db)->Delete(live[pick]).ok());
        live.erase(live.begin() + pick);
      } else {
        std::vector<ValueId> values(cards.size());
        for (size_t a = 0; a < cards.size(); ++a) {
          values[a] = static_cast<ValueId>(wrng.Uniform(cards[a]));
        }
        auto key = (*db)->Insert(values);
        NMRS_CHECK(key.ok());
        live.push_back(*key);
      }
      mutations.fetch_add(1);
      if (i % 150 == 149) NMRS_CHECK((*db)->Compact().ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> batches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng qrng(9000 + t);
      while (!stop.load()) {
        auto snap = (*db)->Snapshot();
        NMRS_CHECK(snap.ok());
        std::vector<Object> queries;
        for (int q = 0; q < 3; ++q) {
          std::vector<ValueId> values(cards.size());
          for (size_t a = 0; a < cards.size(); ++a) {
            values[a] = static_cast<ValueId>(qrng.Uniform(cards[a]));
          }
          queries.push_back(data.MakeObject(values, {}));
        }
        auto first = snap->RunBatch(queries);
        NMRS_CHECK(first.ok());
        NMRS_CHECK(first->ok());
        // Repeatable read: the pinned snapshot answers identically even
        // though the writer keeps mutating underneath.
        auto second = snap->RunBatch(queries);
        NMRS_CHECK(second.ok());
        for (size_t q = 0; q < queries.size(); ++q) {
          NMRS_CHECK(first->results()[q].rows == second->results()[q].rows);
        }
        for (size_t q = 0; q < queries.size(); ++q) {
          for (RowId r : first->results()[q].rows) {
            NMRS_CHECK(r < snap->num_rows());
          }
        }
        batches.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Final state sanity against a single-threaded replay of the same writer
  // sequence.
  auto final_snap = (*db)->Snapshot();
  NMRS_CHECK(final_snap.ok());
  NMRS_CHECK_EQ(final_snap->num_rows(), (*db)->num_rows());
  std::printf("mutable db stress: %llu mutations, %llu reader batches ok\n",
              static_cast<unsigned long long>(mutations.load()),
              static_cast<unsigned long long>(batches.load()));
}

}  // namespace
}  // namespace nmrs

int main() {
  nmrs::StressThreadPool();
  nmrs::StressSharedDiskReaders();
  nmrs::StressDiskViews();
  nmrs::StressSharedBufferPool();
  nmrs::StressEngineWithSharedCache();
  nmrs::StressSharedScanBatch();
  nmrs::StressIntraQueryBatch();
  nmrs::StressFaultBatch();
  nmrs::StressConcurrentFailover();
  nmrs::StressReplicaBatch();
  nmrs::StressOverlayBatch();
  nmrs::StressShardedBatch();
  nmrs::StressMutableDatabase();
  std::printf("exec stress: all ok\n");
  return 0;
}
