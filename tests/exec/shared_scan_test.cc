// Cross-query shared-scan determinism (EngineOptions::shared_scan,
// docs/KERNELS.md): per-query rows and check accounting must be
// bit-identical to per-query execution across worker counts, group sizes,
// caching, and kernel/adaptive settings; the scan's IO must be accounted
// once per group; and ineligible batches (fault injection, replica
// failover, non-BRS/SRS plans) must fall back to per-query execution.
#include <string>
#include <vector>

#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RandomInstance;

class SharedScanTest : public ::testing::Test {
 protected:
  SharedScanTest() : instance_(20260808, 2000, {6, 9, 13}) {
    Rng rng(314);
    for (int i = 0; i < 12; ++i) {
      queries_.push_back(SampleUniformQuery(instance_.data, rng));
    }
  }

  RandomInstance instance_;
  std::vector<Object> queries_;
};

// Kernel settings the sweep exercises: scalar phase 1, kernels with
// immediate promotion (every check through the block path + shared cache),
// and kernels with the adaptive default.
struct KernelVariant {
  const char* name;
  bool use_kernels;
  uint32_t promote_rows;
};
constexpr KernelVariant kKernelVariants[] = {
    {"scalar", false, 0},
    {"kernels-promote0", true, 0},
    {"kernels-default", true, 16},
};

TEST_F(SharedScanTest, BitIdenticalToPerQueryExecution) {
  for (Algorithm algo : {Algorithm::kBRS, Algorithm::kSRS}) {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, instance_.data, algo);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
    for (const KernelVariant& kv : kKernelVariants) {
      EngineOptions ref_opts;
      ref_opts.num_workers = 1;
      ref_opts.rs.memory = MemoryBudget{3};
      ref_opts.rs.use_kernels = kv.use_kernels;
      ref_opts.rs.kernel_promote_rows = kv.promote_rows;
      ShardedQueryEngine ref_engine(one, instance_.space, algo, ref_opts);
      auto reference = ref_engine.RunBatch(queries_);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_TRUE(reference->ok());
      EXPECT_EQ(reference->shared_scan_groups, 0u);

      struct Config {
        size_t workers;
        size_t group;
        bool cache;
      };
      for (const Config& cfg : {Config{1, 1, false}, Config{1, 4, false},
                                Config{1, 16, true}, Config{3, 1, true},
                                Config{3, 4, false}, Config{3, 16, true}}) {
        EngineOptions opts = ref_opts;
        opts.num_workers = cfg.workers;
        opts.shared_scan = true;
        opts.shared_scan_group = cfg.group;
        opts.cache_pages = cfg.cache ? prepared->stored.num_pages() : 0;
        ShardedQueryEngine engine(one, instance_.space, algo, opts);
        auto batch = engine.RunBatch(queries_);
        ASSERT_TRUE(batch.ok()) << batch.status();
        ASSERT_TRUE(batch->ok()) << batch->first_error();
        const std::string label =
            std::string(AlgorithmName(algo)) + "/" + kv.name + " workers=" +
            std::to_string(cfg.workers) + " group=" +
            std::to_string(cfg.group) + (cfg.cache ? " cache" : "");
        const size_t expected_groups =
            (queries_.size() + cfg.group - 1) / cfg.group;
        EXPECT_EQ(batch->shared_scan_groups, expected_groups) << label;
        for (size_t i = 0; i < queries_.size(); ++i) {
          const QueryStats& ref = reference->results[i].stats;
          const QueryStats& got = batch->results[i].stats;
          EXPECT_EQ(batch->results[i].rows, reference->results[i].rows)
              << label << " query " << i;
          EXPECT_EQ(got.checks, ref.checks) << label << " query " << i;
          EXPECT_EQ(got.pair_tests, ref.pair_tests)
              << label << " query " << i;
          EXPECT_EQ(got.phase1_checks, ref.phase1_checks)
              << label << " query " << i;
          EXPECT_EQ(got.phase2_checks, ref.phase2_checks)
              << label << " query " << i;
          EXPECT_EQ(got.phase1_survivors, ref.phase1_survivors)
              << label << " query " << i;
          EXPECT_EQ(got.phase1_batches, ref.phase1_batches)
              << label << " query " << i;
          EXPECT_EQ(got.result_size, ref.result_size)
              << label << " query " << i;
        }
        // The shared pass's IO is reported once; together with per-query
        // IO it is the whole batch.
        IoStats sum = batch->shared_io;
        for (const auto& r : batch->results) sum += r.stats.io;
        EXPECT_EQ(sum, batch->total_io) << label;
        // Replacing Q phase-1 scans with one per group can only shrink
        // the disk traffic (strictly, once a group has > 1 query and no
        // cache blurs the comparison).
        EXPECT_LE(batch->total_io.TotalReads(),
                  reference->total_io.TotalReads())
            << label;
        if (cfg.group > 1 && !cfg.cache) {
          EXPECT_LT(batch->total_io.TotalReads(),
                    reference->total_io.TotalReads())
              << label;
        }
      }
    }
  }
}

TEST_F(SharedScanTest, SharedBatchCountersMatchPerQueryPhase1) {
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, instance_.data, Algorithm::kSRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  EngineOptions opts;
  opts.num_workers = 2;
  opts.rs.memory = MemoryBudget{2};
  opts.shared_scan = true;
  opts.shared_scan_group = 8;
  ShardedQueryEngine engine(one, instance_.space, Algorithm::kSRS, opts);
  auto batch = engine.RunBatch(queries_);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(batch->ok());
  const size_t expected_groups = (queries_.size() + 7) / 8;
  EXPECT_EQ(batch->shared_scan_groups, expected_groups);
  // Every group's shared pass loads each query's phase-1 batches exactly
  // once, so the batch counter is groups x per-query phase1_batches.
  ASSERT_FALSE(batch->results.empty());
  const uint64_t per_query = batch->results[0].stats.phase1_batches;
  EXPECT_GT(per_query, 0u);
  EXPECT_EQ(batch->shared_scan_batches, expected_groups * per_query);
  EXPECT_GT(batch->shared_io.TotalReads(), 0u);
}

TEST_F(SharedScanTest, FallsBackUnderFaultInjectionAndForeignAlgorithms) {
  // Fault injection: shared frames would leak one query's faulted fetch
  // into another's reads, so the engine must run per query (which also
  // keeps the fault streams per query index).
  {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, instance_.data, Algorithm::kBRS);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
    EngineOptions clean;
    clean.num_workers = 1;
    clean.rs.memory = MemoryBudget{2};
    ShardedQueryEngine clean_engine(one, instance_.space, Algorithm::kBRS,
                                    clean);
    auto reference = clean_engine.RunBatch(queries_);
    ASSERT_TRUE(reference.ok() && reference->ok());

    EngineOptions opts = clean;
    opts.num_workers = 2;
    opts.shared_scan = true;
    opts.faults.seed = 5;
    opts.faults.transient_read_p = 0.05;
    opts.rs.resilience.retry.max_attempts = 6;
    ShardedQueryEngine engine(one, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(batch->ok()) << batch->first_error();
    EXPECT_EQ(batch->shared_scan_groups, 0u);
    EXPECT_EQ(batch->shared_io.Total(), 0u);
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(batch->results[i].rows, reference->results[i].rows);
    }
  }
  // Plans whose phase 1 the shared pass does not implement fall back too.
  {
    SimulatedDisk disk;
    auto prepared = PrepareDataset(&disk, instance_.data, Algorithm::kTRS);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
    EngineOptions opts;
    opts.num_workers = 2;
    opts.rs.memory = MemoryBudget{2};
    opts.shared_scan = true;
    ShardedQueryEngine engine(one, instance_.space, Algorithm::kTRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(batch->ok());
    EXPECT_EQ(batch->shared_scan_groups, 0u);
  }
}

TEST_F(SharedScanTest, RejectsPoliciesTheAccountingCannotRepresent) {
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, instance_.data, Algorithm::kBRS);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  // replicas beyond IoStats::kMaxReplicas used to be silently clamped —
  // replica 9+ would neither serve reads nor appear in replica_reads.
  for (const int replicas : {0, -2, 9, 100}) {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.replicas = replicas;
    ShardedQueryEngine engine(one, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_FALSE(batch.ok()) << "replicas=" << replicas;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
        << batch.status();
  }
  {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.retry.max_attempts = 0;
    ShardedQueryEngine engine(one, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries_);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  }
  // The full allowed range still runs.
  {
    EngineOptions opts;
    opts.rs.memory = MemoryBudget{2};
    opts.num_workers = 1;
    opts.rs.resilience.replicas = static_cast<int>(IoStats::kMaxReplicas);
    ShardedQueryEngine engine(one, instance_.space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch({queries_[0]});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_TRUE(batch->ok());
  }
}

}  // namespace
}  // namespace nmrs
