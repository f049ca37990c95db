#include "db/database.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/timer.h"
#include "order/zorder.h"

namespace nmrs {

namespace {

// keys[q] = stable keys of results[q].rows.
std::vector<std::vector<uint64_t>> TranslateKeys(
    const std::vector<ReverseSkylineResult>& results,
    const std::vector<uint64_t>& row_keys) {
  std::vector<std::vector<uint64_t>> keys(results.size());
  for (size_t q = 0; q < results.size(); ++q) {
    keys[q].reserve(results[q].rows.size());
    for (RowId r : results[q].rows) keys[q].push_back(row_keys[r]);
  }
  return keys;
}

Status ValidateQueries(const std::vector<Object>& queries, size_t m) {
  for (size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].values.size() != m) {
      return Status::InvalidArgument(
          "query " + std::to_string(q) + " has " +
          std::to_string(queries[q].values.size()) + " attributes, schema has " +
          std::to_string(m));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint64_t> Snapshot::KeysOf(const std::vector<RowId>& rows) const {
  std::vector<uint64_t> out;
  out.reserve(rows.size());
  for (RowId r : rows) out.push_back(state_->keys[r]);
  return out;
}

StatusOr<DbBatchResult> Snapshot::RunBatch(
    const std::vector<Object>& queries) const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("RunBatch on a default-constructed Snapshot");
  }
  NMRS_RETURN_IF_ERROR(ValidateQueries(
      queries, state_->prepared->stored.schema().num_attributes()));
  DbBatchResult out;
  {
    std::scoped_lock run_lock(state_->run_mu);
    NMRS_ASSIGN_OR_RETURN(out.sharded, state_->engine->RunBatch(queries));
  }
  out.keys = TranslateKeys(out.results(), state_->keys);
  out.snapshot_generation = state_->generation;
  out.snapshot_version = state_->version;
  out.snapshot_rows = state_->prepared->stored.num_rows();
  return out;
}

StatusOr<DbOverlayBatchResult> Snapshot::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition(
        "RunOverlayBatch on a default-constructed Snapshot");
  }
  NMRS_RETURN_IF_ERROR(ValidateQueries(
      queries, state_->prepared->stored.schema().num_attributes()));
  DbOverlayBatchResult out;
  {
    std::scoped_lock run_lock(state_->run_mu);
    NMRS_ASSIGN_OR_RETURN(out.plain,
                          state_->engine->RunOverlayBatch(queries, overlays));
  }
  out.snapshot_generation = state_->generation;
  out.snapshot_version = state_->version;
  return out;
}

StatusOr<DbQueryResult> Snapshot::Query(const Object& query) const {
  NMRS_ASSIGN_OR_RETURN(DbBatchResult batch, RunBatch({query}));
  NMRS_RETURN_IF_ERROR(batch.first_error());
  DbQueryResult out;
  out.result = std::move(batch.sharded->results[0]);
  out.keys = std::move(batch.keys[0]);
  out.snapshot_generation = batch.snapshot_generation;
  out.snapshot_version = batch.snapshot_version;
  return out;
}

Database::Database(const SimilaritySpace& space, DatabaseOptions opts,
                   Schema schema)
    : space_(&space),
      opts_(std::move(opts)),
      schema_(std::move(schema)),
      template_(schema_),
      wal_disk_(std::make_shared<SimulatedDisk>()),
      wal_(std::make_unique<WalWriter>(wal_disk_.get(), opts_.name + ".wal")) {}

StatusOr<std::unique_ptr<Database>> Database::Open(const Dataset& base,
                                                   const SimilaritySpace& space,
                                                   DatabaseOptions opts) {
  NMRS_RETURN_IF_ERROR(base.schema().Validate());
  NMRS_RETURN_IF_ERROR(base.Validate());
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("DatabaseOptions::num_shards must be >= 1");
  }
  // The engine constructor insists on a representable replica count and on
  // one fault config per replica; reject violations here as a Status.
  NMRS_RETURN_IF_ERROR(opts.engine.rs.resilience.Validate());
  const size_t replicas =
      static_cast<size_t>(opts.engine.rs.resilience.replicas);
  if (!opts.engine.replica_faults.empty() &&
      opts.engine.replica_faults.size() != replicas) {
    return Status::InvalidArgument(
        "EngineOptions::replica_faults has " +
        std::to_string(opts.engine.replica_faults.size()) +
        " configs for " + std::to_string(replicas) +
        " replicas; it must be empty or cover every replica");
  }
  std::unique_ptr<Database> db(
      new Database(space, std::move(opts), base.schema()));
  NMRS_RETURN_IF_ERROR(db->InitGen0(base));
  return db;
}

Status Database::InitGen0(const Dataset& base) {
  auto st = std::make_shared<State>();
  st->disk = std::make_shared<SimulatedDisk>();
  NMRS_ASSIGN_OR_RETURN(
      PreparedDataset prep,
      PrepareDataset(st->disk.get(), base, opts_.algo, opts_.prepare,
                     opts_.name + ".gen0"));
  // Pin the resolved ordering: every later generation and every
  // incremental merge must agree with generation 0 on it.
  opts_.prepare.attr_order = prep.attr_order;
  st->build_millis = prep.prepare_millis;
  st->prepared = std::make_unique<PreparedDataset>(std::move(prep));
  st->build_io = st->disk->stats();

  const uint64_t n = base.num_rows();
  st->keys.resize(n);
  std::iota(st->keys.begin(), st->keys.end(), 0);
  st->key_to_row.reserve(n);
  for (RowId r = 0; r < n; ++r) st->key_to_row.emplace(r, r);
  NMRS_RETURN_IF_ERROR(BuildEngine(st.get()));

  gen_ = std::move(st);
  delta_ = std::make_shared<DeltaSegment>(schema_);
  live_.reserve(n);
  for (RowId r = 0; r < n; ++r) {
    live_.emplace(r, db_internal::Location{false, r});
  }
  next_key_ = n;
  return Status::OK();
}

Status Database::BuildEngine(State* st) {
  ShardPlanOptions plan = opts_.shard_plan;
  plan.num_shards = opts_.num_shards;
  NMRS_ASSIGN_OR_RETURN(ShardedDataset sharded,
                        ShardedDataset::Partition(*st->prepared, plan));
  st->sharded = std::make_unique<ShardedDataset>(std::move(sharded));
  st->engine = std::make_unique<ShardedQueryEngine>(*st->sharded, *space_,
                                                    opts_.algo, opts_.engine);
  return Status::OK();
}

uint64_t Database::num_rows() const {
  std::scoped_lock lock(mu_);
  return live_.size();
}

uint64_t Database::num_base_rows() const {
  std::scoped_lock lock(mu_);
  return gen_->prepared->stored.num_rows();
}

uint64_t Database::generation() const {
  std::scoped_lock lock(mu_);
  return gen_counter_;
}

DeltaVersion Database::delta_version() const {
  std::scoped_lock lock(mu_);
  return delta_->version();
}

bool Database::Contains(uint64_t key) const {
  std::scoped_lock lock(mu_);
  return live_.count(key) > 0;
}

DbStats Database::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

Object Database::MakeObject(const std::vector<ValueId>& values,
                            const std::vector<double>& numerics) const {
  return template_.MakeObject(
      values, schema_.NumNumeric() > 0
                  ? numerics
                  : std::vector<double>(schema_.num_attributes(), 0.0));
}

StatusOr<uint64_t> Database::Insert(const std::vector<ValueId>& values,
                                    const std::vector<double>& numerics) {
  const size_t m = schema_.num_attributes();
  if (values.size() != m) {
    return Status::InvalidArgument("Insert row has " +
                                   std::to_string(values.size()) +
                                   " values, schema has " + std::to_string(m));
  }
  if (schema_.NumNumeric() > 0 && numerics.size() != m) {
    return Status::InvalidArgument(
        "Insert row needs " + std::to_string(m) +
        " numerics (schema has numeric attributes), got " +
        std::to_string(numerics.size()));
  }
  Object obj = MakeObject(values, numerics);
  for (AttrId a = 0; a < m; ++a) {
    if (obj.values[a] >= schema_.attribute(a).cardinality) {
      return Status::InvalidArgument(
          "Insert value " + std::to_string(obj.values[a]) + " of attribute " +
          std::to_string(a) + " is outside cardinality " +
          std::to_string(schema_.attribute(a).cardinality) +
          " (grow the space first: SimilaritySpace::AppendCategoricalValue)");
    }
  }
  return ApplyInsert(kInvalidRowId, std::move(obj.values),
                     schema_.NumNumeric() > 0 ? std::move(obj.numerics)
                                              : std::vector<double>{});
}

StatusOr<uint64_t> Database::ApplyInsert(uint64_t key,
                                         std::vector<ValueId> values,
                                         std::vector<double> numerics) {
  std::scoped_lock lock(mu_);
  if (delta_->version().total() >= opts_.max_delta_mutations) {
    return Status::ResourceExhausted(
        "delta segment holds " + std::to_string(delta_->version().total()) +
        " mutations (max_delta_mutations); Compact() and retry");
  }
  if (key == kInvalidRowId) key = next_key_++;
  if (live_.count(key) > 0) {
    return Status::Corruption("insert of key " + std::to_string(key) +
                              " which is already live");
  }
  WalRecord rec;
  rec.type = WalRecord::Type::kInsert;
  rec.key = key;
  rec.values = std::move(values);
  rec.numerics = std::move(numerics);
  NMRS_RETURN_IF_ERROR(wal_->Append(rec));
  const uint64_t rank = delta_->AppendInsert(
      key, rec.values.data(), rec.numerics.empty() ? nullptr : rec.numerics.data());
  live_[key] = db_internal::Location{true, rank};
  next_key_ = std::max(next_key_, key + 1);
  ++stats_.inserts;
  ++stats_.wal_records;
  return key;
}

Status Database::Delete(uint64_t key) {
  std::scoped_lock lock(mu_);
  auto it = live_.find(key);
  if (it == live_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " is not live");
  }
  if (delta_->version().total() >= opts_.max_delta_mutations) {
    return Status::ResourceExhausted(
        "delta segment holds " + std::to_string(delta_->version().total()) +
        " mutations (max_delta_mutations); Compact() and retry");
  }
  WalRecord rec;
  rec.type = WalRecord::Type::kDelete;
  rec.key = key;
  NMRS_RETURN_IF_ERROR(wal_->Append(rec));
  delta_->AppendDelete(key);
  live_.erase(it);
  ++stats_.deletes;
  ++stats_.wal_records;
  return Status::OK();
}

StatusOr<std::shared_ptr<Database::State>> Database::Materialize(
    const State& gen, const DeltaSegment& delta, DeltaVersion v,
    uint64_t generation_label, DeltaVersion version_label,
    const std::string& file_label) {
  Timer timer;
  const StoredDataset& stored = gen.prepared->stored;
  const size_t m = schema_.num_attributes();
  const bool has_num = schema_.NumNumeric() > 0;
  const bool checksum = stored.checksum_pages();
  const std::vector<AttrId>& attr_order = gen.prepared->attr_order;

  // Resolve the delta prefix: which inserts died, which base rows died.
  std::unordered_map<uint64_t, uint64_t> insert_rank;
  insert_rank.reserve(v.inserts);
  for (uint64_t i = 0; i < v.inserts; ++i) {
    insert_rank.emplace(delta.InsertKey(i), i);
  }
  std::vector<char> dead(v.inserts, 0);
  std::vector<RowId> deleted_base;
  for (uint64_t d = 0; d < v.deletes; ++d) {
    const uint64_t key = delta.DeleteKey(d);
    if (auto it = insert_rank.find(key); it != insert_rank.end()) {
      dead[it->second] = 1;
    } else if (auto bit = gen.key_to_row.find(key);
               bit != gen.key_to_row.end()) {
      deleted_base.push_back(bit->second);
    } else {
      return Status::Internal("delta delete references unknown key " +
                              std::to_string(key));
    }
  }
  std::sort(deleted_base.begin(), deleted_base.end());
  const uint64_t base_live = stored.num_rows() - deleted_base.size();

  // Live inserts get merged RowIds base_live.. in *insert order* — exactly
  // the ids they would get appended to a re-built merged Dataset — and are
  // then ordered for the stream merge the way the full re-sort would order
  // them (naive/BRS keep append order; id tie-breaks equal insert-rank
  // tie-breaks because the id assignment is monotone in rank).
  struct DeltaRow {
    uint64_t rank;
    RowId new_id;
    uint64_t zkey;
  };
  std::vector<DeltaRow> drows;
  drows.reserve(v.inserts);
  for (uint64_t i = 0; i < v.inserts; ++i) {
    if (!dead[i]) {
      drows.push_back(DeltaRow{i, base_live + drows.size(), 0});
    }
  }

  const bool tiled =
      opts_.algo == Algorithm::kTileSRS || opts_.algo == Algorithm::kTileTRS;
  const bool ordered = tiled || opts_.algo == Algorithm::kSRS ||
                       opts_.algo == Algorithm::kTRS;
  std::optional<TileZCoder> coder;
  if (tiled) {
    coder.emplace(schema_, attr_order, opts_.prepare.tiles_per_dim);
    for (DeltaRow& dr : drows) dr.zkey = coder->Key(delta.InsertValues(dr.rank));
  }
  auto lex = [&attr_order](const ValueId* a, const ValueId* b) -> int {
    for (AttrId attr : attr_order) {
      if (a[attr] != b[attr]) return a[attr] < b[attr] ? -1 : 1;
    }
    return 0;
  };
  if (ordered) {
    std::sort(drows.begin(), drows.end(),
              [&](const DeltaRow& x, const DeltaRow& y) {
                if (tiled && x.zkey != y.zkey) return x.zkey < y.zkey;
                const int c = lex(delta.InsertValues(x.rank),
                                  delta.InsertValues(y.rank));
                if (c != 0) return c < 0;
                return x.rank < y.rank;
              });
  }

  auto st = std::make_shared<State>();
  st->generation = generation_label;
  st->version = version_label;
  st->disk = std::make_shared<SimulatedDisk>(stored.disk()->page_size());
  const FileId file = st->disk->CreateFile(file_label);
  RowWriter writer(st->disk.get(), file, schema_, checksum);
  const uint64_t total_rows = base_live + drows.size();
  st->keys.resize(total_rows);

  size_t di = 0;
  auto emit_delta = [&]() -> Status {
    const DeltaRow& dr = drows[di];
    NMRS_RETURN_IF_ERROR(writer.Add(dr.new_id, delta.InsertValues(dr.rank),
                                    delta.InsertNumerics(dr.rank)));
    st->keys[dr.new_id] = delta.InsertKey(dr.rank);
    ++di;
    return Status::OK();
  };
  // Strictly-before: on a full key tie the base row wins, because its
  // merged RowId is < base_live <= every delta RowId.
  auto delta_before = [&](const ValueId* bv, uint64_t bz) -> bool {
    if (!ordered || di >= drows.size()) return false;
    const DeltaRow& dr = drows[di];
    if (tiled && dr.zkey != bz) return dr.zkey < bz;
    return lex(delta.InsertValues(dr.rank), bv) < 0;
  };

  // Stream the frozen generation (zero-copy page peeks — safe concurrently
  // with query readers) and 2-way merge with the sorted delta: one run from
  // disk, one from memory, in the external-sort idiom. The base stream is
  // sorted by (sort key, old id); dropping deleted rows and renumbering
  // preserves that order because old id -> new id is monotone, so the merge
  // output equals a full re-sort of the merged dataset, byte for byte.
  RowBatch batch(m, has_num);
  const RowCodec& codec = stored.codec();
  const uint64_t num_pages = stored.num_pages();
  for (PageId p = 0; p < num_pages; ++p) {
    const Page* pg = stored.disk()->PeekPage(stored.file(), p);
    if (pg == nullptr) {
      return Status::Internal("generation page " + std::to_string(p) +
                              " vanished during materialization");
    }
    if (checksum && !pg->VerifySeal()) {
      return Status::Corruption(
          "generation file " + stored.disk()->FileName(stored.file()) +
          " page " + std::to_string(p) +
          " failed checksum verification during materialization");
    }
    batch.Clear();
    codec.DecodePage(*pg, &batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      const RowId old_id = batch.id(i);
      auto lo =
          std::lower_bound(deleted_base.begin(), deleted_base.end(), old_id);
      if (lo != deleted_base.end() && *lo == old_id) continue;
      const RowId new_id =
          old_id - static_cast<RowId>(lo - deleted_base.begin());
      const ValueId* bv = batch.row_values(i);
      const uint64_t bz = coder ? coder->Key(bv) : 0;
      while (delta_before(bv, bz)) {
        NMRS_RETURN_IF_ERROR(emit_delta());
      }
      NMRS_RETURN_IF_ERROR(writer.Add(new_id, bv, batch.row_numerics(i)));
      st->keys[new_id] = gen.keys[old_id];
    }
  }
  while (di < drows.size()) {
    NMRS_RETURN_IF_ERROR(emit_delta());
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());

  st->prepared = std::make_unique<PreparedDataset>(PreparedDataset{
      StoredDataset(st->disk.get(), file, schema_, total_rows, checksum),
      attr_order, 0.0});
  st->key_to_row.reserve(total_rows);
  for (RowId r = 0; r < total_rows; ++r) st->key_to_row.emplace(st->keys[r], r);
  st->build_io = st->disk->stats();
  NMRS_RETURN_IF_ERROR(BuildEngine(st.get()));
  st->build_millis = timer.ElapsedMillis();
  return st;
}

StatusOr<class Snapshot> Database::Snapshot() {
  std::shared_ptr<State> gen;
  std::shared_ptr<DeltaSegment> delta;
  DeltaVersion v;
  {
    std::scoped_lock lock(mu_);
    gen = gen_;
    delta = delta_;
    v = delta->version();
    if (v.total() == 0) {
      ++stats_.snapshots_reused;
      class Snapshot snap(gen);
      return snap;
    }
    if (cached_ != nullptr && cached_base_ == gen.get() &&
        cached_version_ == v) {
      ++stats_.snapshots_reused;
      class Snapshot snap(cached_);
      return snap;
    }
  }
  std::scoped_lock snap_lock(snap_mu_);
  {
    // Another thread may have materialized this epoch while we waited.
    std::scoped_lock lock(mu_);
    if (cached_ != nullptr && cached_base_ == gen.get() &&
        cached_version_ == v) {
      ++stats_.snapshots_reused;
      class Snapshot snap(cached_);
      return snap;
    }
  }
  const std::string label = opts_.name + ".gen" +
                            std::to_string(gen->generation) + ".snap.i" +
                            std::to_string(v.inserts) + "d" +
                            std::to_string(v.deletes);
  NMRS_ASSIGN_OR_RETURN(std::shared_ptr<State> st,
                        Materialize(*gen, *delta, v, gen->generation, v, label));
  {
    std::scoped_lock lock(mu_);
    cached_ = st;
    cached_base_ = gen.get();
    cached_version_ = v;
    ++stats_.snapshots_built;
    stats_.snapshot_build_io += st->build_io;
    stats_.snapshot_build_millis += st->build_millis;
  }
  class Snapshot snap(st);
  return snap;
}

StatusOr<DbQueryResult> Database::Query(const Object& query) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.Query(query);
}

StatusOr<DbBatchResult> Database::RunBatch(const std::vector<Object>& queries) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.RunBatch(queries);
}

StatusOr<DbOverlayBatchResult> Database::RunOverlayBatch(
    const std::vector<Object>& queries,
    const std::vector<const MatrixOverlay*>& overlays) {
  NMRS_ASSIGN_OR_RETURN(class Snapshot snap, Snapshot());
  return snap.RunOverlayBatch(queries, overlays);
}

Status Database::Compact() {
  std::scoped_lock compact_lock(compact_mu_);
  std::shared_ptr<State> gen;
  std::shared_ptr<DeltaSegment> delta;
  DeltaVersion v;
  {
    std::scoped_lock lock(mu_);
    gen = gen_;
    delta = delta_;
    v = delta->version();
  }
  if (v.total() == 0) return Status::OK();  // nothing to fold

  // Build the new generation off-line: readers keep querying the current
  // one (and their pinned snapshots) while the merge runs.
  const uint64_t new_gen = gen->generation + 1;
  NMRS_ASSIGN_OR_RETURN(
      std::shared_ptr<State> ng,
      Materialize(*gen, *delta, v, new_gen, DeltaVersion{},
                  opts_.name + ".gen" + std::to_string(new_gen)));

  // Atomic swap: re-point the base generation, fold mutations that arrived
  // during the merge into a fresh delta, rebuild the key map. Writers are
  // blocked only for this O(delta suffix + keys) section, never for the
  // merge itself; readers are never blocked at all.
  {
    std::scoped_lock lock(mu_);
    auto fresh = std::make_shared<DeltaSegment>(schema_);
    live_.clear();
    live_.reserve(ng->keys.size());
    for (RowId r = 0; r < ng->keys.size(); ++r) {
      live_.emplace(ng->keys[r], db_internal::Location{false, r});
    }
    const DeltaVersion cur = delta_->version();
    for (uint64_t i = v.inserts; i < cur.inserts; ++i) {
      const uint64_t key = delta_->InsertKey(i);
      const uint64_t rank = fresh->AppendInsert(key, delta_->InsertValues(i),
                                                delta_->InsertNumerics(i));
      live_[key] = db_internal::Location{true, rank};
    }
    for (uint64_t d = v.deletes; d < cur.deletes; ++d) {
      const uint64_t key = delta_->DeleteKey(d);
      fresh->AppendDelete(key);
      live_.erase(key);
    }
    gen_ = ng;
    delta_ = std::move(fresh);
    gen_counter_ = new_gen;
    cached_.reset();
    cached_base_ = nullptr;
    ++stats_.compactions;
    stats_.snapshot_build_io += ng->build_io;
    stats_.snapshot_build_millis += ng->build_millis;
  }
  return Status::OK();
}

StatusOr<RecoveredDatabase> Database::Recover(const Dataset& base,
                                              const SimilaritySpace& space,
                                              const SimulatedDisk& wal_source,
                                              FileId wal_file,
                                              DatabaseOptions opts) {
  // Image the WAL onto a scratch disk (the source may belong to a dead
  // database whose pages we may only peek at).
  SimulatedDisk scratch(wal_source.page_size());
  const FileId file = scratch.CreateFile("wal.recover");
  const uint64_t pages = wal_source.NumPages(wal_file);
  for (PageId p = 0; p < pages; ++p) {
    const Page* pg = wal_source.PeekPage(wal_file, p);
    if (pg == nullptr) {
      return Status::Internal("WAL page " + std::to_string(p) +
                              " unreadable during recovery");
    }
    NMRS_RETURN_IF_ERROR(scratch.AppendPage(file, *pg).status());
  }
  NMRS_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(&scratch, file));

  NMRS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Open(base, space, std::move(opts)));
  const size_t m = db->schema_.num_attributes();
  const size_t want_numerics = db->schema_.NumNumeric() > 0 ? m : 0;
  for (size_t r = 0; r < replay.records.size(); ++r) {
    WalRecord& rec = replay.records[r];
    if (rec.type == WalRecord::Type::kInsert) {
      if (rec.values.size() != m || rec.numerics.size() != want_numerics) {
        return Status::Corruption("WAL record " + std::to_string(r) +
                                  " does not match the schema");
      }
      for (AttrId a = 0; a < m; ++a) {
        if (rec.values[a] >= db->schema_.attribute(a).cardinality) {
          return Status::Corruption("WAL record " + std::to_string(r) +
                                    " carries an out-of-domain value");
        }
      }
      Status s = db->ApplyInsert(rec.key, std::move(rec.values),
                                 std::move(rec.numerics))
                     .status();
      if (!s.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  std::to_string(r) + ": " + s.ToString());
      }
    } else {
      Status s = db->Delete(rec.key);
      if (!s.ok()) {
        return Status::Corruption("WAL replay failed at record " +
                                  std::to_string(r) + ": " + s.ToString());
      }
    }
  }
  RecoveredDatabase out;
  out.db = std::move(db);
  out.torn_tail = replay.torn_tail;
  out.records_replayed = replay.records.size();
  return out;
}

}  // namespace nmrs
