#ifndef NMRS_CORE_QUERY_H_
#define NMRS_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "data/object.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/memory_budget.h"
#include "storage/paged_reader.h"

namespace nmrs {

class BufferPool;
class MatrixOverlay;
class TaskExecutor;

/// Options shared by all reverse-skyline algorithms.
struct RSOptions {
  /// Working memory for batches, in pages. Naive ignores it (it streams).
  MemoryBudget memory{16};

  /// Attribute subset to run the query on (paper §5.6); empty = all
  /// attributes. Entries are physical AttrIds.
  std::vector<AttrId> selected_attrs;

  /// AL-Tree / sort attribute ordering (physical AttrIds, a permutation of
  /// the schema). Empty = ascending-cardinality heuristic (paper §5.1).
  std::vector<AttrId> attr_order;

  /// TRS ablation switch: push children in ascending-descendant order
  /// (paper Alg. 4 line 8) when true, insertion order when false.
  bool order_children_by_descendants = true;

  /// Intra-query parallelism: threads used for the phase-1 candidate
  /// checks of BRS/SRS/TRS. The default 1 keeps the exact sequential
  /// execution of the paper reproduction — results, check counts, and IO
  /// are bit-identical to the seed implementation. Values > 1 split each
  /// loaded phase-1 batch into chunks of candidates checked concurrently;
  /// results, check totals, and IO stay identical to the sequential run
  /// (candidate checks are independent and survivors are still written in
  /// scan order), only wall-clock changes. See docs/PARALLELISM.md.
  int num_threads = 1;

  /// Executor hosting the extra phase-1 threads (borrowed, not owned).
  /// When null and num_threads > 1, temporary std::threads are spawned.
  /// The batch engine (ShardedQueryEngine) points this at its own pool.
  TaskExecutor* executor = nullptr;

  /// Buffer-pool page caching (docs/CACHING.md). When `cache_pages` is true
  /// and `buffer_pool` is non-null, dataset reads of the frozen base files
  /// go through the shared pool: hits are served from memory and only
  /// misses are charged to the disk, with hit/miss/eviction counts folded
  /// into QueryStats::io. Reverse-skyline results are identical either way;
  /// only the IO charged changes. Default off = seed-identical IO. The pool
  /// is borrowed (the batch engine owns one per shard) and must have been
  /// built over this dataset's base disk.
  bool cache_pages = false;
  BufferPool* buffer_pool = nullptr;

  /// Fault-survival policy (docs/ROBUSTNESS.md): checksum verification,
  /// transient-retry budget, quarantine reporting, replica failover. One
  /// struct instead of loose fields so algorithms, the batch engine and the
  /// CLI stay in sync. Default == everything off = seed-identical behavior.
  /// `resilience.checksum_pages` is only valid when the dataset — and
  /// therefore this query's scratch spills, which inherit the flag — was
  /// prepared with PrepareOptions::checksum_pages.
  ResiliencePolicy resilience;

  /// Failover replicas of the frozen base files, in replica order (element
  /// r-1 serves replica r; the disk the algorithm runs over is replica 0).
  /// Runtime handles, not policy: the batch engine fills these per query
  /// task from its ReplicaSet when resilience.replicas > 1. Only files with
  /// id < failover_limit fail over (scratch spills exist on the primary
  /// view only).
  std::vector<SimulatedDisk*> failover_disks;
  FileId failover_limit = PagedReaderOptions::kNoFailoverLimit;

  /// Evaluate the pruning condition block-at-a-time through the SIMD
  /// dominance kernels (core/dominance_kernel.h): loaded batches get a
  /// column-major view and each candidate is checked against 32 rows per
  /// step via per-attribute gathers from the candidate's matrix column,
  /// with an AVX2 path selected by runtime CPU dispatch and a portable
  /// fallback. Reverse-skyline results are bit-identical to the scalar
  /// path; for Naive/BRS/SRS and the bichromatic block variant the check
  /// and pair-test counts are also reproduced exactly (mask accounting),
  /// while TRS reports its kernel phase-1 work as
  /// QueryStats::kernel_checks instead of tree-group checks. Default off =
  /// seed-identical execution. See docs/KERNELS.md.
  bool use_kernels = false;

  /// Adaptive promotion threshold of the kernel path (docs/KERNELS.md):
  /// each candidate starts on the exact scalar early-aborting loop and
  /// switches to block evaluation only after surviving this many pruner
  /// tests — so candidates pruned by a close neighbour never pay for
  /// whole blocks, and only long scans (where bulk evaluation amortizes)
  /// are promoted. 0 = promote immediately (the always-block behavior of
  /// the original kernels). Any value yields bit-identical results and
  /// check accounting; only the work split between the probe and the
  /// block path moves (QueryStats::kernel_scalar_rows /
  /// kernel_block_rows / kernel_promotions). The default came from the
  /// bench_kernels promote-threshold sweep.
  uint32_t kernel_promote_rows = 16;

  /// Per-user preference overlay (docs/OVERLAYS.md): a sparse delta over
  /// the base space's categorical matrices. When set (and non-empty) the
  /// query is evaluated against the *overlaid* space — bit-identical rows
  /// to rebuilding a patched SimilaritySpace and running without an
  /// overlay. Naive/BRS/SRS (and the bichromatic block variant) apply the
  /// delta natively through the QueryDistanceTable + PruneContext patched
  /// arrays; the tree variants materialize the patched space once per
  /// query (RunReverseSkyline does this under the covers). The overlay
  /// must have been built over the space passed to the algorithm, and is
  /// borrowed for the duration of the query.
  const MatrixOverlay* overlay = nullptr;
};

/// The PagedReader policy implied by a ResiliencePolicy. Replica handles
/// are runtime state, not policy, so the overload below supplies them.
inline PagedReaderOptions MakeReaderOptions(const ResiliencePolicy& policy) {
  PagedReaderOptions r;
  r.verify_checksums = policy.checksum_pages;
  r.retry = policy.retry;
  r.quarantine = policy.quarantine_log;
  return r;
}

/// The PagedReader policy implied by a query's RSOptions — every algorithm
/// builds its reader from this so the fault-handling and failover behavior
/// is uniform.
inline PagedReaderOptions MakeReaderOptions(const RSOptions& opts) {
  PagedReaderOptions r = MakeReaderOptions(opts.resilience);
  r.failover = opts.failover_disks;
  r.failover_limit = opts.failover_limit;
  return r;
}

/// Everything the paper measures, per query.
struct QueryStats {
  /// Attribute-level pruning-condition evaluations ("checks", paper
  /// Table 3). One check = one comparison of d(y,x) against d(q,x) on a
  /// single attribute (or its group-level / bucket-level analogue).
  uint64_t checks = 0;

  /// Breakdown of `checks` by phase (phase1_checks + phase2_checks ==
  /// checks for the two-phase algorithms; Naive reports all under
  /// phase1_checks).
  uint64_t phase1_checks = 0;
  uint64_t phase2_checks = 0;

  /// Candidate-pruner pair tests begun (each costs >= 1 check).
  uint64_t pair_tests = 0;

  /// Attribute lanes evaluated by the block dominance kernels
  /// (RSOptions::use_kernels): block width x attributes processed,
  /// including lanes the early-aborting scalar loop would have skipped.
  /// Zero when kernels are off. For Naive/BRS/SRS/bichromatic-block this
  /// is extra instrumentation on top of the exactly-reproduced `checks`;
  /// for TRS phase 1 it *replaces* the tree-group check accounting (see
  /// docs/KERNELS.md).
  uint64_t kernel_checks = 0;

  /// Adaptive kernel-dispatch telemetry (RSOptions::kernel_promote_rows;
  /// zero when kernels are off). Candidates promoted from the scalar
  /// probe to block evaluation, rows evaluated by the probe, and rows
  /// evaluated by block windows. Dispatch-independent: the AVX2 and
  /// portable paths report identical values.
  uint64_t kernel_promotions = 0;
  uint64_t kernel_scalar_rows = 0;
  uint64_t kernel_block_rows = 0;

  uint64_t phase1_batches = 0;
  uint64_t phase1_survivors = 0;  // |R| written between phases
  uint64_t phase2_batches = 0;

  /// Page IO charged to this query (excludes pre-processing sort).
  IoStats io;

  double phase1_millis = 0;
  double phase2_millis = 0;
  double compute_millis = 0;  // total wall time of the algorithm

  /// Modeled milliseconds spent in retry backoff (RetryPolicy). Charged as
  /// model time, never slept, so fault runs stay wall-clock independent.
  double modeled_backoff_millis = 0;

  uint64_t result_size = 0;

  /// Response time = computation + modeled disk latency (the simulated
  /// disk transfers pages memory-to-memory, so modeled IO time is added)
  /// + modeled retry backoff.
  double ResponseMillis(const IoCostModel& model = {}) const {
    return compute_millis + model.EstimateMillis(io) + modeled_backoff_millis;
  }

  /// Folds another query-fragment's counters into this one: all counts, IO
  /// and time fields are summed. `result_size` is NOT touched — fragments
  /// of one logical query (e.g. its per-shard runs) each report their local
  /// result size, and only the merger knows the final one. The sharded
  /// executor merges per-shard and exchange-phase stats with this.
  void MergeFrom(const QueryStats& o) {
    checks += o.checks;
    phase1_checks += o.phase1_checks;
    phase2_checks += o.phase2_checks;
    pair_tests += o.pair_tests;
    kernel_checks += o.kernel_checks;
    kernel_promotions += o.kernel_promotions;
    kernel_scalar_rows += o.kernel_scalar_rows;
    kernel_block_rows += o.kernel_block_rows;
    phase1_batches += o.phase1_batches;
    phase1_survivors += o.phase1_survivors;
    phase2_batches += o.phase2_batches;
    io += o.io;
    phase1_millis += o.phase1_millis;
    phase2_millis += o.phase2_millis;
    compute_millis += o.compute_millis;
    modeled_backoff_millis += o.modeled_backoff_millis;
  }

  std::string ToString() const;
};

/// A reverse-skyline answer: original RowIds (ascending) plus stats.
struct ReverseSkylineResult {
  std::vector<RowId> rows;
  QueryStats stats;
};

}  // namespace nmrs

#endif  // NMRS_CORE_QUERY_H_
