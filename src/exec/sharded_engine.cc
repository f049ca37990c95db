#include "exec/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/block_rs.h"
#include "core/dominance.h"
#include "core/shard_exchange.h"
#include "exec/overlay_exec.h"
#include "sim/matrix_overlay.h"

namespace nmrs {

bool BatchStatuses::ok() const { return first_error().ok(); }

Status BatchStatuses::first_error() const {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

size_t BatchStatuses::num_failed() const {
  size_t n = 0;
  for (const Status& s : statuses) n += s.ok() ? 0 : 1;
  return n;
}

double ShardedBatchResult::ModeledMakespanMillis() const {
  double busiest = 0;
  for (size_t s = 0; s < shard_worker_modeled_millis.size(); ++s) {
    const std::vector<double>& lanes = shard_worker_modeled_millis[s];
    double total = 0;
    for (double w : lanes) total += w;
    double ideal =
        lanes.empty() ? 0.0 : total / static_cast<double>(lanes.size());
    if (s < shard_max_task_modeled_millis.size()) {
      ideal = std::max(ideal, shard_max_task_modeled_millis[s]);
    }
    busiest = std::max(busiest, ideal);
  }
  return busiest + ExchangeModeledMillis();
}

double ShardedBatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  return static_cast<double>(results.size()) / (makespan / 1000.0);
}

double OverlayBatchResult::ModeledMakespanMillis() const {
  double overlay = 0;
  for (double w : overlay_worker_modeled_millis) {
    overlay = std::max(overlay, w);
  }
  return base.ModeledMakespanMillis() + overlay;
}

double OverlayBatchResult::ModeledQps() const {
  const double makespan = ModeledMakespanMillis();
  if (makespan <= 0) return 0;
  double answers = 0;
  for (const auto& q : results) answers += static_cast<double>(q.size());
  return answers / (makespan / 1000.0);
}

ShardedQueryEngine::ShardedQueryEngine(const ShardedDataset& sharded,
                                       const SimilaritySpace& space,
                                       Algorithm algo,
                                       EngineOptions opts)
    : sharded_(&sharded),
      space_(&space),
      algo_(algo),
      opts_(std::move(opts)),
      pool_(opts_.num_workers > 0
                ? opts_.num_workers
                : std::max(1u, std::thread::hardware_concurrency())) {
  SimulatedDisk* disk = sharded_->base().stored.disk();
  // Shard files were created by Partition before this constructor ran, so
  // they sit below the ceiling: shard pages fault and fail over exactly
  // like base pages, while per-query scratch spills stay exempt.
  fault_ceiling_ = disk->next_file_id();

  const EngineOptions& eng = opts_;
  ReplicaSetOptions rso_template;
  rso_template.num_replicas =
      std::clamp(eng.rs.resilience.replicas, 1,
                 static_cast<int>(IoStats::kMaxReplicas));
  rso_template.num_workers = static_cast<int>(pool_.num_threads());
  if (!eng.replica_faults.empty()) {
    NMRS_CHECK(eng.replica_faults.size() ==
               static_cast<size_t>(rso_template.num_replicas))
        << "replica_faults must cover every replica";
    rso_template.faults = eng.replica_faults;
  } else if (eng.faults.enabled()) {
    rso_template.faults = {eng.faults};
  }
  rso_template.replica_fault_seed_base =
      eng.rs.resilience.replica_fault_seed_base;
  rso_template.fault_ceiling = fault_ceiling_;

  const int num_shards = sharded_->num_shards();
  replica_sets_.reserve(num_shards);
  pool_caches_.resize(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    // One replica set per shard: per-(worker, shard) DiskViews with their
    // own arms and IO ledgers, so a shard's modeled time is what that
    // shard's machine would spend regardless of what other shards do on
    // the same host threads.
    replica_sets_.push_back(
        std::make_unique<ReplicaSet>(disk, rso_template));
    if (eng.cache_pages > 0 && !replica_sets_[s]->faulted()) {
      BufferPoolOptions pool_opts;
      pool_opts.capacity_pages = eng.cache_pages;
      pool_caches_[s] = std::make_unique<BufferPool>(disk, pool_opts);
    }
  }
}

StatusOr<ShardedBatchResult> ShardedQueryEngine::RunBatch(
    const std::vector<Object>& queries) {
  // Reject out-of-range policies up front instead of bending them: the
  // constructor clamps replicas to build a usable ReplicaSet, but running
  // a batch under a policy the accounting cannot represent would silently
  // drop replica reads (see ResiliencePolicy::Validate).
  NMRS_RETURN_IF_ERROR(opts_.rs.resilience.Validate());

  const size_t num_queries = queries.size();
  const int S = sharded_->num_shards();
  const Schema& schema = sharded_->base().stored.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  const size_t row_bytes = sharded_->base().stored.codec().row_bytes();

  // Shards that participate: empty shards have no rows to prune with and no
  // candidates to offer, so they are excluded from scatter, exchange and
  // verify. With one shard the (possibly empty) shard always runs — that
  // path must reproduce a sequential run exactly.
  std::vector<int> active;
  for (int s = 0; s < S; ++s) {
    if (S == 1 || sharded_->shard_rows(s) > 0) active.push_back(s);
  }

  ShardedBatchResult batch;
  batch.net = opts_.net;
  batch.results.resize(num_queries);
  batch.statuses.assign(num_queries, Status::OK());
  batch.breakdown.resize(num_queries);
  for (ShardQueryBreakdown& b : batch.breakdown) {
    b.shard_candidates.assign(static_cast<size_t>(S), 0);
  }
  batch.shard_worker_modeled_millis.assign(
      static_cast<size_t>(S),
      std::vector<double>(pool_.num_threads(), 0.0));
  batch.shard_max_task_modeled_millis.assign(static_cast<size_t>(S), 0.0);

  Timer timer;
  ConcurrentIoStats total_io;
  QuarantineLog quarantine;
  std::atomic<uint64_t> retried{0};
  std::mutex max_task_mu;
  // Records one task's modeled cost against its shard's critical-path
  // bound; lane += stays lock-free since each (shard, worker) lane is only
  // touched by its own pool worker.
  auto note_task = [&](size_t s, double modeled) {
    std::lock_guard<std::mutex> lock(max_task_mu);
    double& mx = batch.shard_max_task_modeled_millis[s];
    mx = std::max(mx, modeled);
  };

  // Per-(query, shard) scatter outputs; each slot is touched by exactly one
  // task.
  std::vector<std::vector<ReverseSkylineResult>> local(num_queries);
  std::vector<std::vector<Status>> local_status(
      num_queries, std::vector<Status>(static_cast<size_t>(S), Status::OK()));
  std::vector<std::vector<RowBatch>> cand;
  cand.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    local[q].resize(static_cast<size_t>(S));
    cand.emplace_back();
    for (int s = 0; s < S; ++s) cand[q].emplace_back(m, numerics);
  }

  // Builds the per-task RSOptions: shared cache, intra-query threads,
  // checksum implication (a checksummed dataset implies verification —
  // sealing pages and then not checking them would waste the footer) and
  // the batch-local quarantine log (a caller-supplied log gets the batch's
  // findings folded in after the join).
  auto make_rs = [&](int s) {
    RSOptions rs = opts_.rs;
    if (rs.num_threads > 1 && rs.executor == nullptr) rs.executor = &pool_;
    if (pool_caches_[s] != nullptr) {
      rs.cache_pages = true;
      rs.buffer_pool = pool_caches_[s].get();
    } else {
      rs.cache_pages = false;
      rs.buffer_pool = nullptr;
    }
    if (sharded_->shard(s).checksum_pages()) {
      rs.resilience.checksum_pages = true;
    }
    rs.resilience.quarantine_log = &quarantine;
    return rs;
  };

  // ---- Scatter: every (query, active shard) runs the full algorithm over
  // the shard's local rows, then serializes its surviving candidates for
  // the exchange. ----
  // Cross-query scan sharing applies when nothing couples a query to its
  // own private disk wrapper: no fault injection (a shared fetch must be
  // clean for everyone), no replica failover (failover views are per query
  // task), and a BRS/SRS plan (the shared pass implements their phase 1).
  // Groups are formed by query index, so membership — and therefore every
  // per-query result and the batch totals — is independent of worker count
  // and work-stealing order.
  const bool shared_eligible =
      opts_.shared_scan && !replica_sets_[0]->faulted() &&
      replica_sets_[0]->num_replicas() == 1 &&
      (algo_ == Algorithm::kBRS || algo_ == Algorithm::kSRS);

  WaitGroup wg;
  if (shared_eligible && !queries.empty()) {
    ConcurrentIoStats shared_io;
    std::atomic<uint64_t> shared_batches{0};
    std::atomic<uint64_t> shared_groups{0};
    const size_t group_size =
        std::max<size_t>(1, opts_.shared_scan_group);
    const size_t num_groups = (num_queries + group_size - 1) / group_size;
    wg.Add(static_cast<int>(num_groups * active.size()));
    for (size_t g = 0; g < num_groups; ++g) {
      for (int s : active) {
        pool_.Submit([&, g, s] {
          const int w = pool_.CurrentWorkerIndex();
          NMRS_CHECK_GE(w, 0);
          ReplicaSet& rset = *replica_sets_[s];
          DiskView* view = rset.view(w, 0);
          const size_t lo = g * group_size;
          const size_t hi = std::min(num_queries, lo + group_size);
          RSOptions rs = make_rs(s);
          const StoredDataset& shard = sharded_->shard(s);
          StoredDataset shard_data(view, shard.file(), shard.schema(),
                                   shard.num_rows(), shard.checksum_pages());
          const std::vector<Object> group(queries.begin() + lo,
                                          queries.begin() + hi);
          SharedScanStats ss;
          const IoStats before = rset.WorkerStats(w);
          auto res = SharedScanReverseSkylines(
              shard_data, *space_, group, rs,
              /*ring_order=*/algo_ == Algorithm::kSRS, &ss);
          double modeled = ss.shared_millis + ss.modeled_backoff_millis +
                           IoCostModel{}.EstimateMillis(ss.shared_io);
          if (res.ok()) {
            for (size_t q = lo; q < hi; ++q) {
              local[q][s] = std::move((*res)[q - lo]);
              if (S > 1) {
                // Export: one scan collecting the survivors' row data —
                // the payload the shard would put on the wire.
                view->InvalidateArmPosition();
                const IoStats before_collect = rset.WorkerStats(w);
                PagedReader creader(view,
                                    rs.cache_pages ? rs.buffer_pool : nullptr,
                                    MakeReaderOptions(rs));
                cand[q][s].Clear();
                Status cs = CollectRowsById(shard_data, &creader,
                                            local[q][s].rows, &cand[q][s]);
                IoStats collect_io = rset.WorkerStats(w) - before_collect;
                creader.FoldStatsInto(&collect_io);
                local[q][s].stats.io += collect_io;
                local[q][s].stats.modeled_backoff_millis +=
                    creader.modeled_backoff_millis();
                if (!cs.ok()) local_status[q][s] = cs;
              }
              total_io.Add(local[q][s].stats.io);
              modeled += local[q][s].stats.ResponseMillis();
            }
            total_io.Add(ss.shared_io);
            shared_io.Add(ss.shared_io);
            shared_batches.fetch_add(ss.shared_batches,
                                     std::memory_order_relaxed);
            shared_groups.fetch_add(1, std::memory_order_relaxed);
          } else {
            // The whole group dies together (the shared pass is one run);
            // charge its partial IO to the batch, unattributed per query.
            for (size_t q = lo; q < hi; ++q) {
              local_status[q][s] = res.status();
            }
            const IoStats partial = rset.WorkerStats(w) - before;
            total_io.Add(partial);
            modeled = IoCostModel{}.EstimateMillis(partial);
          }
          batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
              modeled;
          note_task(s, modeled);
          wg.Done();
        });
      }
    }
    wg.Wait();
    batch.shared_io = shared_io.Snapshot();
    batch.shared_scan_batches = shared_batches.load(std::memory_order_relaxed);
    batch.shared_scan_groups = shared_groups.load(std::memory_order_relaxed);
  } else {
    wg.Add(static_cast<int>(num_queries * active.size()));
    for (size_t q = 0; q < num_queries; ++q) {
      for (int s : active) {
        pool_.Submit([&, q, s] {
          const int w = pool_.CurrentWorkerIndex();
          NMRS_CHECK_GE(w, 0);
          ReplicaSet& rset = *replica_sets_[s];
          const int num_replicas = rset.num_replicas();
          DiskView* view = rset.view(w, 0);
          // With fault injection on, this task reads through its own
          // FaultyDisk per replica whose stream is fixed by (query, shard),
          // not by which worker runs it. The fault ceiling restricts
          // injection to the frozen base and shard files: scratch-file ids
          // are assigned in execution order, so faulting them would
          // reintroduce a scheduling dependence.
          std::vector<std::unique_ptr<FaultyDisk>> wrappers;
          std::vector<SimulatedDisk*> disks =
              rset.MakeQueryDisks(w, Stream(q, s), &wrappers);
          SimulatedDisk* qdisk = disks[0];
          // Failover replica views persist across the tasks this worker
          // runs, so reset their disk arms: within a task the failover read
          // sequence is then fixed, making its seq/rand IO split independent
          // of which tasks ran earlier on this worker.
          for (int r = 1; r < num_replicas; ++r) {
            rset.view(w, r)->InvalidateArmPosition();
          }

          RSOptions rs = make_rs(s);
          if (num_replicas > 1) {
            rs.failover_disks.assign(disks.begin() + 1, disks.end());
            rs.failover_limit = fault_ceiling_;
          }

          const StoredDataset& shard = sharded_->shard(s);
          const int attempts = 1 + std::max(0, opts_.max_query_retries);
          // Placeholder only: the loop below always runs an attempt.
          StatusOr<ReverseSkylineResult> result =
              Status::Internal("shard task never ran");
          for (int attempt = 0; attempt < attempts; ++attempt) {
            // Retries re-run on the clean view: no fault wrapper, and no
            // failover disks either (the clean view cannot fail).
            SimulatedDisk* attempt_disk = attempt == 0 ? qdisk : view;
            if (attempt == 1) {
              rs.failover_disks.clear();
              rs.failover_limit = PagedReaderOptions::kNoFailoverLimit;
            }
            // Re-wrap the shard over this attempt's disk: the file id and
            // layout are the base disk's, the IO accounting (and any
            // injected faults) are this disk's.
            PreparedDataset shard_prep{
                StoredDataset(attempt_disk, shard.file(), shard.schema(),
                              shard.num_rows(), shard.checksum_pages()),
                sharded_->base().attr_order,
                sharded_->base().prepare_millis};
            const IoStats before = rset.WorkerStats(w);
            result =
                RunReverseSkyline(shard_prep, *space_, queries[q], algo_, rs);
            if (result.ok() && S > 1) {
              // Export: collect the surviving candidates' row data through
              // the same (possibly faulty, failover-backed) disk — a real
              // shard re-reads rows to serialize them, and may fail doing
              // so, which counts as a failed attempt like any other.
              attempt_disk->InvalidateArmPosition();
              const IoStats before_collect = rset.WorkerStats(w);
              PagedReader creader(attempt_disk,
                                  rs.cache_pages ? rs.buffer_pool : nullptr,
                                  MakeReaderOptions(rs));
              cand[q][s].Clear();
              Status cs = CollectRowsById(shard_prep.stored, &creader,
                                          result->rows, &cand[q][s]);
              IoStats collect_io = rset.WorkerStats(w) - before_collect;
              creader.FoldStatsInto(&collect_io);
              result->stats.io += collect_io;
              result->stats.modeled_backoff_millis +=
                  creader.modeled_backoff_millis();
              if (!cs.ok()) result = cs;
            }
            if (result.ok()) {
              if (attempt > 0) retried.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            // Keep the dead run's partial IO (worker-wide: failover reads
            // landed on this worker's other replica views too). A later
            // successful attempt overwrites it, so a recovered task reports
            // the stats of the attempt that produced the answer.
            ReverseSkylineResult partial;
            partial.stats.io = rset.WorkerStats(w) - before;
            local[q][s] = std::move(partial);
            if (!result.status().IsStorageFault()) break;
          }

          if (result.ok()) {
            local[q][s] = std::move(*result);
          } else {
            local_status[q][s] = result.status();
          }
          total_io.Add(local[q][s].stats.io);
          batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
              local[q][s].stats.ResponseMillis();
          note_task(s, local[q][s].stats.ResponseMillis());
          wg.Done();
        });
      }
    }
    wg.Wait();
  }

  // ---- Exchange bookkeeping (coordinator): fold shard failures into
  // per-query statuses, record candidate counts, and account the message
  // traffic of the three exchange rounds. ----
  const bool exchange = S > 1 && active.size() >= 2;
  std::vector<std::vector<uint64_t>> foreign_count(
      num_queries, std::vector<uint64_t>(static_cast<size_t>(S), 0));
  for (size_t q = 0; q < num_queries; ++q) {
    for (int s : active) {
      if (!local_status[q][s].ok() && batch.statuses[q].ok()) {
        batch.statuses[q] = local_status[q][s];
      }
      batch.breakdown[q].shard_candidates[s] = local[q][s].rows.size();
    }
    if (!exchange || !batch.statuses[q].ok()) continue;
    uint64_t total_bytes = 0;
    uint64_t total_count = 0;
    for (int s : active) {
      total_bytes += cand[q][s].size() * row_bytes;
      total_count += cand[q][s].size();
    }
    MessageStats& msg = batch.breakdown[q].messages;
    // Round 1 — candidate gather: every shard ships its local skyline.
    msg.messages += active.size();
    msg.bytes += total_bytes;
    msg.rounds += 1;
    // Round 2 — broadcast: each shard receives the other shards' rows.
    for (int s : active) {
      msg.messages += 1;
      msg.bytes += total_bytes - cand[q][s].size() * row_bytes;
      foreign_count[q][s] = total_count - cand[q][s].size();
    }
    msg.rounds += 1;
    // Round 3 — verdict gather: one bit per foreign candidate per shard.
    for (int s : active) {
      msg.messages += 1;
      msg.bytes += (foreign_count[q][s] + 7) / 8;
    }
    msg.rounds += 1;
  }

  // ---- Verify: each shard streams its local rows past the foreign
  // candidates; pruned verdicts come back positionally. ----
  std::vector<std::vector<std::vector<uint8_t>>> verdicts(
      num_queries,
      std::vector<std::vector<uint8_t>>(static_cast<size_t>(S)));
  std::vector<std::vector<QueryStats>> verify_stats(
      num_queries, std::vector<QueryStats>(static_cast<size_t>(S)));
  if (exchange) {
    for (size_t q = 0; q < num_queries; ++q) {
      if (!batch.statuses[q].ok()) continue;
      for (int s : active) {
        if (foreign_count[q][s] == 0) continue;
        wg.Add(1);
        pool_.Submit([&, q, s] {
          const int w = pool_.CurrentWorkerIndex();
          NMRS_CHECK_GE(w, 0);
          ReplicaSet& rset = *replica_sets_[s];
          const int num_replicas = rset.num_replicas();
          DiskView* view = rset.view(w, 0);
          std::vector<std::unique_ptr<FaultyDisk>> wrappers;
          std::vector<SimulatedDisk*> disks =
              rset.MakeQueryDisks(w, Stream(q, s), &wrappers);
          SimulatedDisk* qdisk = disks[0];
          for (int r = 1; r < num_replicas; ++r) {
            rset.view(w, r)->InvalidateArmPosition();
          }

          RSOptions rs = make_rs(s);
          if (num_replicas > 1) {
            rs.failover_disks.assign(disks.begin() + 1, disks.end());
            rs.failover_limit = fault_ceiling_;
          }

          // The merged broadcast, minus this shard's own candidates (it
          // already refined those in its local phase 2), concatenated in
          // shard order — the positional contract of the verdict bitmap.
          RowBatch foreign(m, numerics);
          for (int t : active) {
            if (t == s) continue;
            const RowBatch& c = cand[q][t];
            for (size_t i = 0; i < c.size(); ++i) {
              foreign.Append(c.id(i), c.row_values(i), c.row_numerics(i));
            }
          }

          const StoredDataset& shard = sharded_->shard(s);
          const int attempts = 1 + std::max(0, opts_.max_query_retries);
          Status vstatus = Status::OK();
          for (int attempt = 0; attempt < attempts; ++attempt) {
            SimulatedDisk* attempt_disk = attempt == 0 ? qdisk : view;
            if (attempt == 1) {
              rs.failover_disks.clear();
              rs.failover_limit = PagedReaderOptions::kNoFailoverLimit;
            }
            StoredDataset shard_data(attempt_disk, shard.file(),
                                     shard.schema(), shard.num_rows(),
                                     shard.checksum_pages());
            attempt_disk->InvalidateArmPosition();
            const IoStats before = rset.WorkerStats(w);
            PagedReader reader(attempt_disk,
                               rs.cache_pages ? rs.buffer_pool : nullptr,
                               MakeReaderOptions(rs));
            QueryStats vs;
            Timer verify_timer;
            vstatus = PruneCandidatesAgainstShard(shard_data, *space_,
                                                  queries[q], foreign, rs,
                                                  &reader, &verdicts[q][s],
                                                  &vs);
            vs.phase2_checks = vs.checks;
            vs.io = rset.WorkerStats(w) - before;
            reader.FoldStatsInto(&vs.io);
            vs.modeled_backoff_millis = reader.modeled_backoff_millis();
            vs.compute_millis = verify_timer.ElapsedMillis();
            vs.phase2_millis = vs.compute_millis;
            verify_stats[q][s] = vs;
            if (vstatus.ok()) {
              if (attempt > 0) retried.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            if (!vstatus.IsStorageFault()) break;
          }
          if (!vstatus.ok()) local_status[q][s] = vstatus;
          total_io.Add(verify_stats[q][s].io);
          batch.shard_worker_modeled_millis[s][static_cast<size_t>(w)] +=
              verify_stats[q][s].ResponseMillis();
          note_task(s, verify_stats[q][s].ResponseMillis());
          wg.Done();
        });
      }
    }
    wg.Wait();
  }

  // ---- Merge: a candidate is in the reverse skyline iff it survived its
  // home shard AND no other shard's verdict pruned it. Rows come out
  // sorted ascending, exactly as every single-shard algorithm emits them.
  // ----
  for (size_t q = 0; q < num_queries; ++q) {
    // Verify failures surface after the exchange loop above.
    for (int s : active) {
      if (!local_status[q][s].ok() && batch.statuses[q].ok()) {
        batch.statuses[q] = local_status[q][s];
      }
    }
    QueryStats merged;
    for (int s : active) merged.MergeFrom(local[q][s].stats);
    if (exchange) {
      for (int s : active) merged.MergeFrom(verify_stats[q][s]);
    }

    if (!batch.statuses[q].ok()) {
      batch.results[q] = ReverseSkylineResult{};
      batch.results[q].stats = merged;
      continue;
    }

    if (!exchange) {
      // One (possibly the only active) shard holds the whole answer.
      NMRS_CHECK_LE(active.size(), 1u);
      if (!active.empty()) {
        batch.results[q] = std::move(local[q][active[0]]);
      }
      continue;
    }

    std::vector<RowId> rows;
    for (int s : active) {
      const RowBatch& own = cand[q][s];
      for (size_t i = 0; i < own.size(); ++i) {
        bool alive = true;
        for (int t : active) {
          if (t == s) continue;
          // Position of (s, i) in t's foreign concat: candidates of shards
          // before s (skipping t itself), then i.
          size_t offset = 0;
          for (int u : active) {
            if (u == s) break;
            if (u == t) continue;
            offset += cand[q][u].size();
          }
          if (verdicts[q][t][offset + i] != 0) {
            alive = false;
            break;
          }
        }
        if (alive) rows.push_back(own.id(i));
      }
    }
    std::sort(rows.begin(), rows.end());
    merged.result_size = rows.size();
    batch.results[q].rows = std::move(rows);
    batch.results[q].stats = merged;
  }

  for (const ShardQueryBreakdown& b : batch.breakdown) {
    batch.total_messages += b.messages;
  }

  batch.total_io = total_io.Snapshot();
  batch.wall_millis = timer.ElapsedMillis();
  batch.tasks_retried = retried.load(std::memory_order_relaxed);
  batch.quarantined = quarantine.Pages();
  if (opts_.rs.resilience.quarantine_log != nullptr) {
    for (const auto& [file, page] : batch.quarantined) {
      opts_.rs.resilience.quarantine_log->Report(file, page);
    }
  }
  return batch;
}

StatusOr<OverlayBatchResult> ShardedQueryEngine::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) {
  NMRS_RETURN_IF_ERROR(opts_.rs.resilience.Validate());
  if (opts_.rs.overlay != nullptr) {
    return Status::InvalidArgument(
        "RunOverlayBatch: the engine's rs.overlay template must be null — "
        "the per-user overlays come from the overlays argument");
  }
  if (overlays.empty()) {
    return Status::InvalidArgument("RunOverlayBatch: no overlay users");
  }
  for (const MatrixOverlay* o : overlays) {
    if (o == nullptr) {
      return Status::InvalidArgument("RunOverlayBatch: null overlay");
    }
    if (&o->base() != space_) {
      return Status::InvalidArgument(
          "RunOverlayBatch: overlay built over a different base space");
    }
  }

  Timer timer;
  OverlayBatchResult out;
  out.results.resize(queries.size());
  for (auto& per_user : out.results) per_user.resize(overlays.size());
  out.statuses.assign(queries.size(), Status::OK());
  out.overlay_worker_modeled_millis.assign(pool_.num_threads(), 0.0);

  const StoredDataset& base_data = sharded_->base().stored;
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(base_data.schema(), opts_.rs.selected_attrs);

  // Classification and re-checks read the whole BASE dataset — sensitivity
  // and membership are properties of rows, not of the partitioning — on
  // clean worker views (shard 0's replica set views the same disk).
  PagedReaderOptions clean_reader_opts;
  clean_reader_opts.verify_checksums =
      base_data.checksum_pages() ||
      opts_.rs.resilience.checksum_pages;
  ReplicaSet& rset0 = *replica_sets_[0];

  // ---- 1. Query-independent classification, once per batch. ----
  OverlayClassification cls;
  {
    DiskView* view = rset0.view(0, 0);
    StoredDataset local(view, base_data.file(), base_data.schema(),
                        base_data.num_rows(), base_data.checksum_pages());
    PagedReader reader(view, nullptr, clean_reader_opts);
    const IoStats before = rset0.WorkerStats(0);
    NMRS_RETURN_IF_ERROR(
        ClassifyOverlayRows(local, &reader, overlays, selected, &cls));
    cls.io = rset0.WorkerStats(0) - before;
    reader.FoldStatsInto(&cls.io);
  }
  out.sensitive_rows = cls.TotalSensitive();
  out.invariant_rows = cls.TotalInvariant();
  out.overlay_worker_modeled_millis[0] +=
      cls.classify_millis + IoCostModel{}.EstimateMillis(cls.io);

  // ---- 2. One sharded base run per query. ----
  NMRS_ASSIGN_OR_RETURN(out.base, RunBatch(queries));
  out.statuses = out.base.statuses;

  // ---- 3. Grouped re-check scans over the base file. ----
  std::vector<size_t> scan_users;
  for (size_t u = 0; u < overlays.size(); ++u) {
    if (!cls.user_rows[u].empty()) scan_users.push_back(u);
  }
  const size_t group_size = std::max<size_t>(1, opts_.overlay_group);
  const size_t num_groups =
      (scan_users.size() + group_size - 1) / group_size;

  ConcurrentIoStats overlay_io;
  std::atomic<uint64_t> recheck_scans{0};
  std::atomic<uint64_t> recheck_checks{0};
  std::atomic<uint64_t> recheck_pair_tests{0};
  std::mutex status_mu;
  WaitGroup wg;

  for (size_t q = 0; q < queries.size(); ++q) {
    if (!out.statuses[q].ok()) continue;
    for (size_t u = 0; u < overlays.size(); ++u) {
      if (cls.user_rows[u].empty()) {
        out.results[q][u].rows = out.base.results[q].rows;
        out.results[q][u].stats.result_size = out.results[q][u].rows.size();
      }
    }
    for (size_t g = 0; g < num_groups; ++g) {
      wg.Add(1);
      pool_.Submit([this, &queries, &overlays, &out, &cls, &selected,
                    &scan_users, &overlay_io, &recheck_scans, &recheck_checks,
                    &recheck_pair_tests, &status_mu, &wg, &clean_reader_opts,
                    &base_data, &rset0, group_size, q, g] {
        const int w = pool_.CurrentWorkerIndex();
        NMRS_CHECK_GE(w, 0);
        Timer task_timer;
        DiskView* view = rset0.view(w, 0);
        StoredDataset local(view, base_data.file(), base_data.schema(),
                            base_data.num_rows(), base_data.checksum_pages());
        PagedReader reader(view, nullptr, clean_reader_opts);

        const size_t lo = g * group_size;
        const size_t hi = std::min(scan_users.size(), lo + group_size);
        const std::vector<size_t> group(scan_users.begin() + lo,
                                        scan_users.begin() + hi);
        std::vector<std::vector<uint8_t>> alive(group.size());
        for (size_t i = 0; i < group.size(); ++i) {
          alive[i].assign(cls.user_rows[group[i]].size(), 1);
        }

        QueryStats scan_stats;
        const IoStats before = rset0.WorkerStats(w);
        Status st = RecheckOverlayGroup(local, &reader, *space_, queries[q],
                                        selected, overlays, group, cls,
                                        &alive, &scan_stats);
        scan_stats.io = rset0.WorkerStats(w) - before;
        reader.FoldStatsInto(&scan_stats.io);
        scan_stats.compute_millis = task_timer.ElapsedMillis();
        overlay_io.Add(scan_stats.io);
        recheck_scans.fetch_add(1, std::memory_order_relaxed);
        recheck_checks.fetch_add(scan_stats.checks,
                                 std::memory_order_relaxed);
        recheck_pair_tests.fetch_add(scan_stats.pair_tests,
                                     std::memory_order_relaxed);
        if (st.ok()) {
          for (size_t i = 0; i < group.size(); ++i) {
            const size_t u = group[i];
            out.results[q][u].rows = MergeOverlayRows(
                out.base.results[q].rows, cls, u, alive[i]);
            out.results[q][u].stats.result_size =
                out.results[q][u].rows.size();
          }
        } else {
          std::lock_guard<std::mutex> lock(status_mu);
          if (out.statuses[q].ok()) out.statuses[q] = st;
        }
        out.overlay_worker_modeled_millis[static_cast<size_t>(w)] +=
            scan_stats.ResponseMillis();
        wg.Done();
      });
    }
  }
  wg.Wait();

  out.recheck_scans = recheck_scans.load(std::memory_order_relaxed);
  out.recheck_checks = recheck_checks.load(std::memory_order_relaxed);
  out.recheck_pair_tests =
      recheck_pair_tests.load(std::memory_order_relaxed);
  out.overlay_io = overlay_io.Snapshot();
  out.overlay_io += cls.io;
  out.total_io = out.base.total_io;
  out.total_io += out.overlay_io;
  out.wall_millis = timer.ElapsedMillis();
  return out;
}

}  // namespace nmrs
