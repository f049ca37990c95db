#ifndef NMRS_EXEC_SHARDED_ENGINE_H_
#define NMRS_EXEC_SHARDED_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/pipeline.h"
#include "core/query.h"
#include "data/object.h"
#include "exec/engine_options.h"
#include "exec/thread_pool.h"
#include "shard/message_stats.h"
#include "shard/shard_plan.h"
#include "sim/similarity_space.h"
#include "storage/buffer_pool.h"
#include "storage/replica_set.h"

namespace nmrs {

// The engine consumes EngineOptions (exec/engine_options.h): every shard
// is modeled as one machine with `num_workers` workers, `rs.memory` pages
// of working memory, its own `cache_pages` page cache, and — with
// resilience.replicas > 1 — its own replica set; `net` is the network cost
// model of the pruner exchange.

/// Per-query outcomes of a batch: statuses[i] is the outcome of queries[i].
/// A failed query leaves the rest of the batch intact (graceful
/// degradation); callers that want all-or-nothing semantics return
/// first_error() themselves.
struct BatchStatuses {
  std::vector<Status> statuses;

  /// True iff every query succeeded.
  bool ok() const;
  /// The lowest-index failure, or OK if none.
  Status first_error() const;
  size_t num_failed() const;
};

/// Per-query sharding telemetry.
struct ShardQueryBreakdown {
  /// Local reverse-skyline sizes per shard — the phase-1 candidate counts
  /// the exchange ships (zero for shards the query failed on).
  std::vector<uint64_t> shard_candidates;
  /// This query's exchange traffic (zero with one shard: no exchange runs).
  MessageStats messages;
};

/// Outcome of one ShardedQueryEngine::RunBatch.
struct ShardedBatchResult : BatchStatuses {
  /// results[i] answers queries[i]: rows are bit-identical to a sequential
  /// RunReverseSkyline of that query for every shard count. With one shard
  /// and no cache, per-query stats are identical to the sequential run's
  /// too; with more shards they are the sum over the query's per-shard
  /// local runs, export scans and verify passes (deterministic for a fixed
  /// shard count, but shard-count-dependent — see docs/SHARDING.md). With
  /// a shared cache (cache_pages > 0) which query gets charged a miss
  /// depends on who touched the page first, so per-query IO becomes
  /// interleaving-dependent; only aggregate invariants survive (see
  /// docs/CACHING.md). A failed query holds no rows but still carries the
  /// partial IO it charged before dying (folded into total_io too).
  std::vector<ReverseSkylineResult> results;
  std::vector<ShardQueryBreakdown> breakdown;

  /// (query, shard) tasks that failed a faulty run and succeeded on a
  /// clean-view re-run (EngineOptions::max_query_retries). With one shard
  /// this counts recovered queries.
  uint64_t tasks_retried = 0;

  /// Shared-scan execution counters (EngineOptions::shared_scan; all zero
  /// when it is off or the batch fell back to per-query runs).
  /// `shared_scan_groups` = (query group, shard) phase-1 passes;
  /// `shared_scan_batches` = memory-sized batches those passes loaded (each
  /// feeding every query of its group); `shared_io` = the shared passes'
  /// page IO, reported here once instead of Q times in per-query stats,
  /// and included in total_io. Under shared scans per-query QueryStats::io
  /// covers only that query's own scratch spills, phase-2 scan and exchange
  /// work, so sum(results[i].stats.io) + shared_io == total_io.
  uint64_t shared_scan_groups = 0;
  uint64_t shared_scan_batches = 0;
  IoStats shared_io;

  /// Pages any query in this batch gave up on (kDataLoss / kCorruption),
  /// sorted — the batch's quarantine set.
  std::vector<std::pair<FileId, PageId>> quarantined;

  /// Aggregate page IO over all queries (equals the sum of
  /// results[i].stats.io plus shared_io). Without a cache it is
  /// independent of worker count and scheduling. With a cache, total
  /// reads+writes stay worker-count-invariant as long as the pool never
  /// evicts (misses = distinct pages, single-flight); under eviction
  /// pressure the totals depend on the interleaving, as on real hardware.
  IoStats total_io;

  /// Exchange traffic summed over all queries.
  MessageStats total_messages;

  /// Host wall-clock time of the batch.
  double wall_millis = 0;

  /// modeled[s][w]: modeled busy time (the sum of QueryStats::ResponseMillis
  /// — compute + modeled disk latency — of the tasks it ran) of worker w on
  /// shard s. Each shard is one machine whose workers own private DiskViews
  /// of the shard replica set, so all S x W (shard, worker) lanes overlap.
  /// Failed tasks charge their partial time too: they occupied the spindle.
  std::vector<std::vector<double>> shard_worker_modeled_millis;

  /// Largest single modeled task (one query's scatter run or verify pass)
  /// per shard: the critical-path lower bound ModeledMakespanMillis uses.
  std::vector<double> shard_max_task_modeled_millis;

  /// The cost model the batch ran under (copied from the options so the
  /// makespan math is self-contained).
  MessageCostModel net;

  double ExchangeModeledMillis() const {
    return net.EstimateMillis(total_messages);
  }

  /// Busiest shard under an idealized per-shard schedule, plus the
  /// exchange cost. Each shard is one machine with W worker lanes, so its
  /// phase time is the LPT bound max(total_modeled_work / W, largest
  /// single task) — deterministic in the task set rather than in how the
  /// host pool happened to interleave tasks (the raw lanes stay available
  /// as telemetry). Shards overlap; the exchange is modeled as serialized
  /// through the gather coordinator (a deliberately conservative model —
  /// see docs/SHARDING.md). docs/PARALLELISM.md states the model.
  double ModeledMakespanMillis() const;
  /// Queries per modeled second: results.size() / makespan.
  double ModeledQps() const;
};

/// Outcome of one ShardedQueryEngine::RunOverlayBatch: Q queries answered
/// for K overlay users via one base-space run per query plus incremental
/// re-pruning of the overlay-sensitive candidates (docs/OVERLAYS.md).
/// statuses[q] is the outcome of queries[q] for all of its users: the base
/// run and the re-check scans are shared, so they fail together.
struct OverlayBatchResult : BatchStatuses {
  /// results[q][u] answers queries[q] under overlays[u]: rows are
  /// bit-identical to rebuilding user u's patched SimilaritySpace and
  /// running the full algorithm over it. Per-(q,u) stats carry only
  /// result_size — the shared work (base run, classification, re-check
  /// scans) is reported once in the batch-level fields below, because
  /// attributing one shared scan to K users would double-count it.
  std::vector<std::vector<ReverseSkylineResult>> results;

  /// The base-space batch the users share: its rows are the
  /// overlay-invariant answer, its stats/IO the phase the users share.
  ShardedBatchResult base;

  /// Overlay telemetry. `sensitive_rows` / `invariant_rows` sum the
  /// per-user classification over all users (their sum is rows * users);
  /// `recheck_scans` counts the grouped re-check passes over the dataset
  /// (<= queries * ceil(users / overlay_group)); `recheck_checks` /
  /// `recheck_pair_tests` aggregate the re-check pruning work.
  uint64_t sensitive_rows = 0;
  uint64_t invariant_rows = 0;
  uint64_t recheck_scans = 0;
  uint64_t recheck_checks = 0;
  uint64_t recheck_pair_tests = 0;

  /// IO of the classification pass + re-check scans (over the base file,
  /// through clean views; not part of base.total_io).
  IoStats overlay_io;
  /// Aggregate IO: base batch + classification + re-check scans.
  IoStats total_io;

  double wall_millis = 0;

  /// Per-worker modeled busy time of the overlay phases only (the base
  /// batch models its own lanes); the phases are serialized: base batch,
  /// then the overlay scans on the same worker lanes.
  std::vector<double> overlay_worker_modeled_millis;

  /// base.ModeledMakespanMillis() + the busiest overlay lane.
  double ModeledMakespanMillis() const;
  double ModeledQps() const;  // queries * users / makespan
};

/// Scatter/gather executor over a ShardedDataset (docs/SHARDING.md): every
/// query fans out to all non-empty shards, each shard runs the *complete*
/// configured algorithm (naive/BRS/SRS/TRS — kernels, adaptive dispatch,
/// caching, faults and failover all apply per shard, unchanged) over its
/// local rows, producing its local reverse skyline; the pruner exchange
/// then gathers every shard's surviving candidates, broadcasts the merged
/// set back, and each shard streams its local rows past the foreign
/// candidates (pruned local rows still prune — the relation is not
/// transitive). A candidate survives iff every shard's verdict clears it,
/// which makes the merged row set bit-identical to single-shard execution
/// by construction, for any partitioning.
///
/// This is the only executor: an unpartitioned dataset runs through it as
/// ShardedDataset::Partition(prepared, {}), whose single shard aliases the
/// base file with zero IO. Each worker reads through a private DiskView
/// (its own spindle) and spills phase-1 survivors to view-local scratch
/// files; tasks fan out across the pool's work-stealing deques and results
/// land at their query's index.
///
/// Determinism contract: rows and statuses are independent of worker count
/// and scheduling, and equal to the single-shard rows for every shard
/// count. With one shard the engine reads the base file itself with fault
/// stream == the query index and runs no exchange — counters and IO then
/// equal a sequential RunReverseSkyline of each query bit-for-bit. With
/// more shards, per-query counters are deterministic for a fixed shard
/// count but necessarily differ from the single-shard counters.
///
/// Fault streams: (query q, shard s) reads under stream q + (s << 32), a
/// pure function of the pair, so fault patterns stay independent of worker
/// count; shard 0 keeps stream q, preserving the single-shard pattern.
class ShardedQueryEngine {
 public:
  /// `sharded`, `space` are borrowed and must outlive the engine; the base
  /// disk must stay structurally frozen for the engine's lifetime (the
  /// ShardedDataset's files are part of the frozen structure).
  ShardedQueryEngine(const ShardedDataset& sharded,
                     const SimilaritySpace& space, Algorithm algo,
                     EngineOptions opts = {});

  size_t num_workers() const { return pool_.num_threads(); }
  int num_shards() const { return sharded_->num_shards(); }
  Algorithm algorithm() const { return algo_; }

  /// Shard s's replica set / page cache (cache null when cache_pages == 0
  /// or the engine runs fault injection: a shared cache would let one
  /// query's faulted fetch leak into another query's reads in a
  /// scheduling-dependent way). Pool stats aggregate over every batch.
  const ReplicaSet& replicas(int s) const { return *replica_sets_[s]; }
  const BufferPool* buffer_pool(int s) const { return pool_caches_[s].get(); }

  /// Runs every query through scatter -> exchange -> verify -> merge,
  /// blocking until the batch completes. Per-query isolation: a storage
  /// fault on any shard fails only that query, whose outcome lands in
  /// statuses while the rest of the batch returns real results. The
  /// call-level StatusOr is an error only for batch-level problems (an
  /// out-of-range resilience policy).
  StatusOr<ShardedBatchResult> RunBatch(const std::vector<Object>& queries);

  /// Answers every query for every overlay user (docs/OVERLAYS.md): one
  /// sharded base run per query through RunBatch (scatter, exchange,
  /// verify, faults, failover — everything applies), one classification
  /// pass over the base dataset, and grouped re-check scans of the
  /// overlay-sensitive candidates through clean views. Rows are
  /// bit-identical to rebuilding each user's patched space and running the
  /// sharded batch per user. Overlays must be non-null, built over this
  /// engine's space; the engine's rs.overlay template must be null.
  StatusOr<OverlayBatchResult> RunOverlayBatch(
      const std::vector<Object>& queries,
      const std::vector<const MatrixOverlay*>& overlays);

 private:
  uint64_t Stream(size_t query, int shard) const {
    return static_cast<uint64_t>(query) +
           (static_cast<uint64_t>(shard) << 32);
  }

  const ShardedDataset* sharded_;
  const SimilaritySpace* space_;
  Algorithm algo_;
  EngineOptions opts_;
  ThreadPool pool_;
  FileId fault_ceiling_;
  // Per-shard replica sets and page caches: per-(worker, shard) DiskViews
  // live inside the replica sets; per-shard pools route each shard's pages
  // through its own cache.
  std::vector<std::unique_ptr<ReplicaSet>> replica_sets_;
  std::vector<std::unique_ptr<BufferPool>> pool_caches_;
};

}  // namespace nmrs

#endif  // NMRS_EXEC_SHARDED_ENGINE_H_
