#ifndef NMRS_EXEC_ENGINE_OPTIONS_H_
#define NMRS_EXEC_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query.h"
#include "shard/message_stats.h"
#include "storage/fault_injection.h"

namespace nmrs {

/// The executor's options: ShardedQueryEngine and the Database front door
/// both consume this struct, so the worker / cache / fault / replica /
/// shared-scan / overlay knobs have one spelling everywhere. `net` only
/// matters with more than one shard (a single shard runs no exchange).
struct EngineOptions {
  /// Worker threads (0 = std::thread::hardware_concurrency()).
  size_t num_workers = 0;

  /// Per-query options template. Setting rs.num_threads > 1 additionally
  /// parallelizes each query's phase-1 candidate checks on the same pool
  /// (rs.executor is filled in by the engine when left null).
  RSOptions rs;

  /// Shared page-cache capacity in pages; 0 = no cache (seed-identical
  /// IO). When > 0 the engine owns one BufferPool per shard over the
  /// frozen base disk, shared by all workers. See docs/CACHING.md.
  uint64_t cache_pages = 0;

  /// Deterministic storage fault injection (docs/ROBUSTNESS.md). When
  /// faults.enabled(), every query task reads through its own FaultyDisk
  /// whose fault stream is the query's batch index — so the faults query i
  /// sees are a pure function of (faults.seed, i, file, page, attempt),
  /// independent of worker count and work-stealing order.
  ///
  /// With rs.resilience.replicas > 1 this config is the *template* for
  /// every replica: replica 0 runs it verbatim, replica r runs it under
  /// seed ReplicaSet::ReplicaSeed(faults.seed, ..., r).
  FaultConfig faults;

  /// Explicit per-replica fault configs; overrides the `faults` template
  /// when non-empty (size must then equal rs.resilience.replicas; a
  /// disabled entry leaves that replica clean).
  std::vector<FaultConfig> replica_faults;

  /// Extra attempts for a query whose run failed with a storage-fault
  /// status: the query is re-run on a clean view — no fault wrapper —
  /// modeling a replica read. Non-storage errors are never retried.
  int max_query_retries = 0;

  /// Cross-query scan sharing (docs/KERNELS.md): groups of
  /// `shared_scan_group` consecutive BRS/SRS queries run their phase 1
  /// through ONE pass over the dataset. Falls back to per-query execution
  /// under fault injection, replica failover, or other algorithms.
  bool shared_scan = false;
  size_t shared_scan_group = 16;

  /// Multi-tenant overlay re-check grouping (docs/OVERLAYS.md): re-check
  /// the overlay-sensitive candidates of up to `overlay_group` users per
  /// query through one pass over the dataset.
  size_t overlay_group = 16;

  /// Network cost model of the cross-shard pruner exchange
  /// (docs/SHARDING.md); unused with one shard.
  MessageCostModel net;
};

}  // namespace nmrs

#endif  // NMRS_EXEC_ENGINE_OPTIONS_H_
