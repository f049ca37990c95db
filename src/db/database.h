#ifndef NMRS_DB_DATABASE_H_
#define NMRS_DB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/delta_segment.h"
#include "exec/engine_options.h"
#include "exec/sharded_engine.h"
#include "shard/shard_plan.h"
#include "sim/similarity_space.h"
#include "storage/wal.h"

namespace nmrs {

class Database;

/// Everything that shapes a Database: the algorithm and its preparation
/// knobs, the full executor vocabulary (workers, caches, faults, replicas,
/// shared scans, overlays, network model), and the sharding layout — the
/// front door threads it through every snapshot's engine unchanged.
struct DatabaseOptions {
  Algorithm algo = Algorithm::kBRS;

  /// Dataset preparation (attr order, tiles, CRC32C page seals). The
  /// resolved attr_order of the first generation is pinned and reused by
  /// every later generation so incremental merges and full re-preparations
  /// agree byte for byte.
  PrepareOptions prepare;

  /// Executor options applied to every snapshot's engine (`engine.net`
  /// feeds the pruner exchange when num_shards > 1).
  EngineOptions engine;

  /// Shards of every snapshot's Partition. 1 = the single shard aliases
  /// the snapshot's file (no partitioning IO, no exchange).
  int num_shards = 1;

  /// Partitioning layout when num_shards > 1 (its own num_shards field is
  /// overridden by the one above).
  ShardPlanOptions shard_plan;

  /// Mutations (inserts + deletes) the delta may hold before Insert /
  /// Delete return kResourceExhausted — the back-pressure signal that
  /// compaction is overdue.
  uint64_t max_delta_mutations = 1 << 22;

  /// Prefix of generation / WAL file names.
  std::string name = "db";
};

/// Cumulative database-level telemetry (mutation counts, WAL volume,
/// snapshot materialization cost, compactions).
struct DbStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t wal_records = 0;
  uint64_t snapshots_built = 0;   // materialized base+delta merges
  uint64_t snapshots_reused = 0;  // served from the epoch cache / base gen
  uint64_t compactions = 0;
  /// IO of snapshot/compaction materializations: the new generation's
  /// writes (base reads are served zero-copy off the frozen generation).
  IoStats snapshot_build_io;
  double snapshot_build_millis = 0;
};

namespace db_internal {

/// Where a live key currently resides.
struct Location {
  bool in_delta = false;
  uint64_t index = 0;  // generation RowId, or delta insert rank
};

/// One immutable materialized state: a private disk holding the merged
/// dataset (and shard files), the engine built over it, and the RowId ->
/// stable-key translation. Shared by Snapshot handles; a base generation
/// is exactly one of these with an empty folded-in delta.
struct SnapshotState {
  uint64_t generation = 0;  // generation counter of the underlying base
  DeltaVersion version;     // delta prefix folded into this state

  std::shared_ptr<SimulatedDisk> disk;
  std::unique_ptr<PreparedDataset> prepared;  // stable address for engines
  std::vector<uint64_t> keys;                 // keys[RowId] -> stable key
  std::unordered_map<uint64_t, RowId> key_to_row;

  std::unique_ptr<ShardedDataset> sharded;  // stable address for engine
  std::unique_ptr<ShardedQueryEngine> engine;

  IoStats build_io;
  double build_millis = 0;

  /// Serializes batch runs on this state's engine (engines own per-worker
  /// views and are not reentrant). Readers on different snapshots never
  /// contend.
  mutable std::mutex run_mu;
};

}  // namespace db_internal

/// Outcome of one query through the Database front door.
struct DbQueryResult {
  /// Rows are RowIds of the snapshot the query ran on (= merged-dataset
  /// indices, bit-identical to re-preparing base+delta from scratch).
  ReverseSkylineResult result;
  /// result.rows translated to stable keys (key i of the initial dataset
  /// is i; inserted rows carry the key Insert returned).
  std::vector<uint64_t> keys;
  uint64_t snapshot_generation = 0;
  DeltaVersion snapshot_version;
};

/// Outcome of one batch through the front door: the engine result, kept
/// whole in `sharded` so consumers see every engine field, with the key
/// translation and snapshot pin layered on top. `sharded` is always set;
/// it stays a std::optional for consumers that test and dereference it
/// (perfbench/bench.cc).
struct DbBatchResult {
  std::optional<ShardedBatchResult> sharded;

  /// keys[q] translates results()[q].rows to stable keys.
  std::vector<std::vector<uint64_t>> keys;

  uint64_t snapshot_generation = 0;
  DeltaVersion snapshot_version;
  uint64_t snapshot_rows = 0;

  const std::vector<ReverseSkylineResult>& results() const {
    return sharded->results;
  }
  const std::vector<Status>& statuses() const { return sharded->statuses; }
  bool ok() const { return sharded->ok(); }
  Status first_error() const { return sharded->first_error(); }
  size_t num_failed() const { return sharded->num_failed(); }
  const IoStats& total_io() const { return sharded->total_io; }
  double wall_millis() const { return sharded->wall_millis; }
  double ModeledMakespanMillis() const {
    return sharded->ModeledMakespanMillis();
  }
  double ModeledQps() const { return sharded->ModeledQps(); }
};

/// Outcome of one overlay batch through the front door (docs/OVERLAYS.md):
/// queries answered for every overlay user over the pinned snapshot. The
/// engine result is `plain`, always set (an optional for the same reason
/// as DbBatchResult::sharded).
struct DbOverlayBatchResult {
  std::optional<OverlayBatchResult> plain;

  uint64_t snapshot_generation = 0;
  DeltaVersion snapshot_version;

  const std::vector<std::vector<ReverseSkylineResult>>& results() const {
    return plain->results;
  }
  const std::vector<Status>& statuses() const { return plain->statuses; }
  bool ok() const { return plain->ok(); }
  Status first_error() const { return plain->first_error(); }
};

/// An epoch-pinned, immutable view of the database: base generation plus a
/// delta prefix, materialized as ONE prepared dataset that is bit-identical
/// — rows, counters, page bytes — to re-preparing the merged dataset from
/// scratch. Every algorithm and engine composition (kernels, workers,
/// caches, shards, replicas, overlays) therefore behaves exactly as it
/// would over a frozen dataset of the same content; concurrent mutations
/// never move the ground under a running query.
///
/// Handles are cheap to copy and keep their state (disk included) alive
/// independently of the Database — a snapshot taken before a compaction
/// stays valid after it.
class Snapshot {
 public:
  Snapshot() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t generation() const { return state_->generation; }
  DeltaVersion delta_version() const { return state_->version; }
  uint64_t num_rows() const { return state_->prepared->stored.num_rows(); }
  const PreparedDataset& prepared() const { return *state_->prepared; }

  /// Stable key of snapshot row `row` (< num_rows()).
  uint64_t KeyOf(RowId row) const { return state_->keys[row]; }
  std::vector<uint64_t> KeysOf(const std::vector<RowId>& rows) const;

  /// Materialization cost of this snapshot (zero when it IS the base
  /// generation).
  double build_millis() const { return state_->build_millis; }
  const IoStats& build_io() const { return state_->build_io; }

  /// The pinned state's executor. Telemetry access (worker and shard
  /// counts, buffer pool stats) for CLI and bench consumers; running
  /// queries still goes through RunBatch / Query so the per-state run lock
  /// is honored.
  const ShardedQueryEngine& engine() const { return *state_->engine; }

  /// Runs a batch over the pinned state. Thread-safe: concurrent calls on
  /// the same snapshot serialize; calls on different snapshots run
  /// independently.
  StatusOr<DbBatchResult> RunBatch(const std::vector<Object>& queries) const;

  StatusOr<DbOverlayBatchResult> RunOverlayBatch(
      const std::vector<Object>& queries,
      const std::vector<const MatrixOverlay*>& overlays) const;

  StatusOr<DbQueryResult> Query(const Object& query) const;

 private:
  friend class Database;
  explicit Snapshot(std::shared_ptr<db_internal::SnapshotState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<db_internal::SnapshotState> state_;
};

/// Result of Database::Recover.
struct RecoveredDatabase {
  std::unique_ptr<Database> db;
  /// True when the WAL's last page was torn by a crash mid-write; the
  /// database then holds the durable prefix (every acknowledged mutation).
  bool torn_tail = false;
  uint64_t records_replayed = 0;
};

/// The mutable-dataset front door (docs/MUTABILITY.md): one handle that
/// owns the WAL, the in-memory delta segment, the current base generation,
/// and the engine wiring for online serving.
///
///   Open      — prepare the initial generation from an in-memory Dataset
///   Insert    — append a row (WAL first, then the concurrent-reader delta)
///   Delete    — remove a live row by stable key
///   Snapshot  — pin the current epoch as an immutable queryable state
///   Query / RunBatch / RunOverlayBatch — convenience: snapshot + run
///   Compact   — fold the delta into a new base generation (external-sort
///               style streamed merge) and swap it in atomically; readers
///               holding snapshots are never blocked or invalidated
///   Recover   — rebuild from the original base + a WAL image (crash
///               recovery; deterministic, torn tails detected)
///
/// ## Concurrency
///
/// Mutations and metadata reads take the database mutex; queries do not —
/// they run over snapshot states whose disks and engines are immutable
/// after publication. Writers are briefly blocked by Snapshot()
/// materialization and by the compaction swap, never by running queries;
/// queries never see a half-applied mutation (delta prefixes are
/// immutable, see DeltaSegment).
class Database {
 public:
  /// Opens a database over `base` (its rows get stable keys 0..n-1 and the
  /// initial generation is exactly PrepareDataset of `base`). `space` is
  /// borrowed and must outlive the database; its value universe is fixed —
  /// inserts must stay inside the schema's cardinalities (see
  /// SimilaritySpace::AppendCategoricalValue for growing the universe
  /// before inserting).
  static StatusOr<std::unique_ptr<Database>> Open(const Dataset& base,
                                                  const SimilaritySpace& space,
                                                  DatabaseOptions opts = {});

  /// Rebuilds a database from the original base dataset plus a WAL image
  /// (pages of `wal_file` on `wal_source`, typically a copy of a crashed
  /// database's wal_disk()). Replays every durable record through the
  /// normal mutation path — the recovered database carries a fresh WAL
  /// with the same records, and its snapshots are bit-identical to the
  /// pre-crash ones. Compaction never changes the replay result (the WAL
  /// is not truncated by Compact).
  static StatusOr<RecoveredDatabase> Recover(const Dataset& base,
                                             const SimilaritySpace& space,
                                             const SimulatedDisk& wal_source,
                                             FileId wal_file,
                                             DatabaseOptions opts = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Schema& schema() const { return schema_; }
  Algorithm algorithm() const { return opts_.algo; }
  const DatabaseOptions& options() const { return opts_; }
  const SimilaritySpace& space() const { return *space_; }

  /// Live logical rows (base minus deletes plus live inserts).
  uint64_t num_rows() const;
  /// Rows in the current base generation (before delta).
  uint64_t num_base_rows() const;
  uint64_t generation() const;
  DeltaVersion delta_version() const;
  bool Contains(uint64_t key) const;
  DbStats stats() const;

  /// Builds a query object, deriving discretization buckets for numeric
  /// attributes exactly as dataset rows do.
  Object MakeObject(const std::vector<ValueId>& values,
                    const std::vector<double>& numerics = {}) const;

  /// Inserts a row; returns its stable key. `values[i]` is the categorical
  /// value id of attribute i (ignored for numeric attributes, whose bucket
  /// is derived from `numerics[i]`; out-of-range numerics clamp into the
  /// edge buckets, as everywhere else). Durable (WAL-appended) before the
  /// call returns. kResourceExhausted once the delta holds
  /// max_delta_mutations — compact and retry.
  StatusOr<uint64_t> Insert(const std::vector<ValueId>& values,
                            const std::vector<double>& numerics = {});

  /// Deletes the live row with stable key `key` (kNotFound otherwise).
  Status Delete(uint64_t key);

  /// Pins the current state. With an empty delta this is the base
  /// generation itself (free); otherwise the base+delta merge is
  /// materialized — once per epoch: repeated calls at an unchanged version
  /// return the cached state.
  StatusOr<class Snapshot> Snapshot();

  /// Convenience single-query / batch / overlay entry points: Snapshot()
  /// then run. Batches against an unchanged version share the cached
  /// snapshot and its warm caches.
  StatusOr<DbQueryResult> Query(const Object& query);
  StatusOr<DbBatchResult> RunBatch(const std::vector<Object>& queries);
  StatusOr<DbOverlayBatchResult> RunOverlayBatch(
      const std::vector<Object>& queries,
      const std::vector<const MatrixOverlay*>& overlays);

  /// Folds the current delta into a new base generation and swaps it in.
  /// The merge streams the frozen generation against the sorted delta
  /// (2-run merge in the external-sort idiom, re-sealing pages with the
  /// generation's CRC32C config) on a private disk, so readers — including
  /// ones holding older snapshots — are never blocked; mutations arriving
  /// during the merge are carried over into the fresh delta atomically at
  /// swap time. Queries after the swap are bit-identical to before it.
  Status Compact();

  /// The WAL's backing disk and file — read-only access for telemetry and
  /// for tests that image the log to simulate crashes.
  const SimulatedDisk& wal_disk() const { return *wal_disk_; }
  FileId wal_file() const { return wal_->file(); }

 private:
  Database(const SimilaritySpace& space, DatabaseOptions opts, Schema schema);

  using State = db_internal::SnapshotState;

  /// Prepares the base dataset as generation 0 and seeds keys/live map.
  Status InitGen0(const Dataset& base);

  /// Materializes base+delta(prefix v) as a fresh state labeled
  /// (generation_label, version_label): the streamed stable merge that is
  /// byte-identical to re-preparing the merged dataset.
  StatusOr<std::shared_ptr<State>> Materialize(const State& gen,
                                               const DeltaSegment& delta,
                                               DeltaVersion v,
                                               uint64_t generation_label,
                                               DeltaVersion version_label,
                                               const std::string& file_label);

  /// Builds the shard partition and the engine over st->prepared.
  Status BuildEngine(State* st);

  /// WAL + delta + key-map insert with a fixed key (mutation path shared
  /// by Insert and WAL replay). Caller validated; takes mu_.
  StatusOr<uint64_t> ApplyInsert(uint64_t key, std::vector<ValueId> values,
                                 std::vector<double> numerics);

  const SimilaritySpace* space_;
  DatabaseOptions opts_;
  Schema schema_;
  Dataset template_;  // 0-row dataset: bucketizers for MakeObject

  std::shared_ptr<SimulatedDisk> wal_disk_;
  std::unique_ptr<WalWriter> wal_;

  mutable std::mutex mu_;  // mutations, live_, cache pointers, stats
  std::mutex snap_mu_;     // serializes snapshot materialization
  std::mutex compact_mu_;  // serializes compactions

  std::shared_ptr<State> gen_;  // current base generation
  std::shared_ptr<DeltaSegment> delta_;
  std::unordered_map<uint64_t, db_internal::Location> live_;
  uint64_t next_key_ = 0;
  uint64_t gen_counter_ = 0;

  // Epoch cache: last materialized snapshot, keyed by (base identity,
  // delta version).
  std::shared_ptr<State> cached_;
  const State* cached_base_ = nullptr;
  DeltaVersion cached_version_;

  DbStats stats_;
};

}  // namespace nmrs

#endif  // NMRS_DB_DATABASE_H_
