#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "altree/al_tree.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/pipeline.h"
#include "core/query_distance_table.h"
#include "core/shard_exchange.h"
#include "data/columnar_batch.h"
#include "data/delta_segment.h"
#include "data/generators.h"
#include "data/stored_dataset.h"
#include "db/database.h"
#include "metrics.h"
#include "exec/overlay_exec.h"
#include "shard/shard_plan.h"
#include "sim/matrix_overlay.h"
#include "stats.h"
#include "storage/paged_reader.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {
namespace {

using nmrs::Algorithm;
using nmrs::Database;
using nmrs::Dataset;
using nmrs::Object;
using nmrs::PreparedDataset;
using nmrs::Rng;
using nmrs::SimilaritySpace;
using nmrs::Status;
using nmrs::StatusOr;
using nmrs::ValueId;

// Engine workers: one per core of the 4-core reference machine.
constexpr size_t kWorkers = 4;
// Database::Open repeats in two rounds per untraced run, one before the
// measuring and one after it with the run's database closed, so that one
// slow moment of the machine weighs less. A round opens at least kSetupReps
// times, and more until kSetupSeconds have passed (up to kMaxSetupReps);
// setup_s is the median of both rounds.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kMaxSetupReps = 10000;
// Upper bound on one measuring phase, so a slow build still exits in time.
constexpr double kMaxPhaseSeconds = 120;
// Direct page reads and kernel candidates per traced request.
constexpr int kPageReadsPerRequest = 8;
constexpr int kKernelCandidates = 8;
// Candidates sent to each shard per traced exchange call.
constexpr size_t kExchangeCandidates = 512;
// tenants: overlay users per RunOverlayBatch call.
constexpr size_t kUsers = 16;

// ---------------------------------------------------------------- inputs

struct Spec {
  Algorithm algo = Algorithm::kSRS;
  int shards = 1;
  uint64_t rows = 0;
  size_t batch = 0;   // queries per Database call
  size_t pool = 0;    // distinct queries; each call draws `batch` of them
  bool overlay = false; // RunOverlayBatch for every user (tenants only)
  bool mixed = false; // mutations beside reads (mixed_rw only)
  // mixed_rw: mutations per cycle and cycles per compaction.
  size_t cycle_mutations = 0;
  size_t compact_every = 0;
};

std::optional<Spec> SpecFor(const std::string& name) {
  Spec s;
  if (name == "scan_srs") {
    s.algo = Algorithm::kSRS;
    s.rows = 64000;
    s.batch = 8;
    s.pool = 128;
  } else if (name == "tree_shards") {
    s.algo = Algorithm::kTRS;
    s.shards = 4;
    s.rows = 40000;
    s.batch = 8;
    s.pool = 128;
  } else if (name == "tenants") {
    s.algo = Algorithm::kBRS;
    s.rows = 5000;
    s.batch = 8;
    s.pool = 128;
    s.overlay = true;
  } else if (name == "mixed_rw") {
    s.algo = Algorithm::kSRS;
    s.rows = 100000;
    s.batch = 4;
    s.pool = 256;
    s.mixed = true;
    s.cycle_mutations = 200;
    s.compact_every = 25;
  } else {
    return std::nullopt;
  }
  return s;
}

// Ordinal dissimilarity with jitter and asymmetry (the bench_kernels e2e
// construction): dissimilarity grows with rank distance, but each entry is
// scaled by a random factor, which breaks symmetry and the triangle
// inequality while keeping dominance dense.
nmrs::DissimilarityMatrix MakeOrdinalMatrix(size_t card, Rng& rng) {
  nmrs::DissimilarityMatrix mat(card);
  for (ValueId a = 0; a < card; ++a) {
    for (ValueId b = 0; b < card; ++b) {
      if (a == b) continue;
      const double rank = static_cast<double>(a > b ? a - b : b - a) /
                          static_cast<double>(card);
      mat.Set(a, b, rank * rng.UniformDouble(0.6, 1.4));
    }
  }
  return mat;
}

const std::vector<size_t> kUniformCards = {32, 32, 32, 32};

// A Latin-hypercube sample of `n` queries whose per-attribute marginals
// follow the data's: attribute a of query i takes the data's value at
// quantile (stratum + jitter) / n, and each attribute's strata are shuffled
// independently. Stratifying keeps the pool's mix of cheap and expensive
// queries, and so a run's mean cost, nearly the same from seed to seed.
std::vector<Object> QueryPool(const Dataset& data, size_t n, Rng& rng) {
  const size_t m = data.num_attributes();
  const uint64_t rows = data.num_rows();
  std::vector<std::vector<ValueId>> values(n, std::vector<ValueId>(m));
  std::vector<ValueId> column(rows);
  std::vector<ValueId> strata(n);
  for (nmrs::AttrId a = 0; a < m; ++a) {
    for (uint64_t r = 0; r < rows; ++r) column[r] = data.Value(r, a);
    std::sort(column.begin(), column.end());
    for (size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(i) + rng.NextDouble()) /
                       static_cast<double>(n);
      strata[i] = column[std::min<uint64_t>(
          rows - 1, static_cast<uint64_t>(q * static_cast<double>(rows)))];
    }
    rng.Shuffle(strata);
    for (size_t i = 0; i < n; ++i) values[i][a] = strata[i];
  }
  std::vector<Object> pool;
  for (auto& v : values) pool.push_back(data.MakeObject(v, {}));
  return pool;
}

struct Inputs {
  Spec spec;
  std::optional<Dataset> data;
  std::unique_ptr<SimilaritySpace> space;  // stable address for overlays
  std::vector<Object> pool;
  // The tenants' users (none elsewhere).
  std::vector<nmrs::MatrixOverlay> overlays;
  std::vector<const nmrs::MatrixOverlay*> overlay_ptrs;
  nmrs::DatabaseOptions opts;
  Rng batch_rng{0};  // which pool queries each call runs
  Rng mutation_rng{0};
};

// The next call's queries: `spec.batch` distinct pool indices drawn at
// random, so batch costs vary smoothly instead of cycling through a few
// fixed batches.
std::vector<size_t> DrawBatch(Inputs& in) {
  std::vector<size_t> idx(in.pool.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (size_t i = 0; i < in.spec.batch; ++i) {
    std::swap(idx[i], idx[i + in.batch_rng.Uniform(idx.size() - i)]);
  }
  idx.resize(in.spec.batch);
  return idx;
}

uint64_t PagesFor(const nmrs::Schema& schema, uint64_t rows) {
  return nmrs::RowCodec(schema, nmrs::kDefaultPageSize).PagesFor(rows);
}

std::unique_ptr<Inputs> MakeInputs(const Spec& spec, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->spec = spec;
  Rng root(seed);
  Rng data_rng = root.Fork();
  Rng space_rng = root.Fork();
  Rng query_rng = root.Fork();
  Rng overlay_rng = root.Fork();
  in->batch_rng = root.Fork();
  in->mutation_rng = root.Fork();

  std::vector<size_t> cards = kUniformCards;
  if (spec.algo == Algorithm::kTRS) {
    cards = nmrs::CensusIncomeCardinalities();
    in->data.emplace(nmrs::GenerateCensusIncomeLike(spec.rows, data_rng));
  } else {
    // tenants: 12 values per attribute. Uniform rather than the paper's
    // normal data, whose crowded central values made the re-check cost
    // hinge on whether a seed's few touched overlay entries hit them.
    if (spec.overlay) cards = {12, 12, 12, 12};
    in->data.emplace(nmrs::GenerateUniform(spec.rows, cards, data_rng));
  }
  in->space = std::make_unique<SimilaritySpace>();
  for (size_t c : cards) {
    in->space->AddCategorical(MakeOrdinalMatrix(c, space_rng));
  }
  in->pool = QueryPool(*in->data, spec.pool, query_rng);
  if (spec.overlay) {
    in->overlays.reserve(kUsers);
    for (size_t u = 0; u < kUsers; ++u) {
      in->overlays.push_back(
          nmrs::MakeRandomOverlay(*in->space, overlay_rng, 0.01));
    }
  }
  for (const auto& o : in->overlays) in->overlay_ptrs.push_back(&o);

  nmrs::DatabaseOptions& o = in->opts;
  o.algo = spec.algo;
  o.num_shards = spec.shards;
  o.engine.num_workers = kWorkers;
  o.engine.rs.use_kernels = true;
  const uint64_t pages = PagesFor(in->data->schema(), spec.rows);
  if (spec.shards > 1) {
    // A quarter of an average shard's pages: smaller than the working set.
    o.engine.cache_pages =
        std::max<uint64_t>(1, pages / static_cast<uint64_t>(spec.shards) / 4);
  } else {
    // The whole file, with room for mixed_rw's growth between compactions.
    o.engine.cache_pages = 2 * pages;
  }
  return in;
}

// ---------------------------------------------------------------- oracle

// answers[p][u]: sorted stable keys of pool query p for user u (u = 0 with
// no overlays).
using Answers = std::vector<std::vector<std::vector<uint64_t>>>;

// Scalar single-shard RunReverseSkyline over a fresh PrepareDataset of
// `data`, whose row r carries stable key keys[r]. Jobs spread over
// kWorkers threads, each with its own disk and preparation.
StatusOr<Answers> OracleAnswers(const Dataset& data,
                                const std::vector<const SimilaritySpace*>& spaces,
                                const std::vector<Object>& queries,
                                Algorithm algo,
                                const nmrs::PrepareOptions& prepare,
                                const std::vector<uint64_t>& keys) {
  Answers out(queries.size(),
              std::vector<std::vector<uint64_t>>(spaces.size()));
  const size_t jobs = queries.size() * spaces.size();
  std::atomic<size_t> next{0};
  std::vector<Status> errors(kWorkers);
  auto work = [&](size_t w) {
    nmrs::SimulatedDisk disk;
    auto prep = nmrs::PrepareDataset(&disk, data, algo, prepare, "oracle");
    if (!prep.ok()) {
      errors[w] = prep.status();
      return;
    }
    for (size_t j = next++; j < jobs; j = next++) {
      const size_t p = j / spaces.size(), u = j % spaces.size();
      auto r = nmrs::RunReverseSkyline(*prep, *spaces[u], queries[p], algo);
      if (!r.ok()) {
        errors[w] = r.status();
        return;
      }
      std::vector<uint64_t>& ks = out[p][u];
      for (nmrs::RowId row : r->rows) ks.push_back(keys[row]);
      std::sort(ks.begin(), ks.end());
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) threads.emplace_back(work, w);
  for (auto& t : threads) t.join();
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return out;
}

std::vector<uint64_t> SortedKeys(const nmrs::Snapshot& snap,
                                 const std::vector<nmrs::RowId>& rows) {
  std::vector<uint64_t> ks = snap.KeysOf(rows);
  std::sort(ks.begin(), ks.end());
  return ks;
}

// ---------------------------------------------------------------- helpers

double MsBetween(int64_t a, int64_t b) { return (b - a) / 1e6; }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-run accumulation of measured samples and counters.
struct Collector {
  std::vector<double> batch_ms;
  std::vector<double> write_us;  // inserts and deletes
  double timed_ms = 0;           // summed Database call time
  uint64_t answers = 0;          // (query, user) answers
  RunResult* out;

  explicit Collector(RunResult* r) : out(r) {}

  void Call(bool ok) {
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      out->correct = false;
    }
  }
};

void Put(RunResult* r, const std::string& name, double v, uint64_t n = 1) {
  r->metrics[name] = MetricValue{v, n};
}

void PutMedian(RunResult* r, const std::string& name,
               const std::vector<double>& v, double scale = 1.0) {
  Put(r, name, Median(v) * scale, v.size());
}

// ---------------------------------------------------------------- layer probes

// A private re-preparation of the rows a snapshot holds. Database
// snapshots are bit-identical to PrepareDataset of the same rows, so the
// direct layer calls of a traced run measure the same bytes without
// touching the database's own disks.
struct Replica {
  std::unique_ptr<nmrs::SimulatedDisk> disk;
  std::optional<PreparedDataset> prep;
  std::optional<nmrs::RowBatch> loaded;  // the first memory-budget batch
  std::optional<nmrs::ShardedDataset> sharded;  // sharded workloads only
};

StatusOr<std::unique_ptr<Replica>> BuildReplica(const Inputs& in,
                                                const Dataset& rows,
                                                Tracer* tr) {
  auto rep = std::make_unique<Replica>();
  rep->disk = std::make_unique<nmrs::SimulatedDisk>();
  {
    ScopedSpan s(tr, "order.prepare");
    auto prep = nmrs::PrepareDataset(rep->disk.get(), rows, in.spec.algo,
                                     in.opts.prepare, "replica");
    if (!prep.ok()) return prep.status();
    rep->prep.emplace(std::move(*prep));
  }
  const nmrs::StoredDataset& st = rep->prep->stored;
  rep->loaded.emplace(st.schema().num_attributes(),
                      st.schema().NumNumeric() > 0);
  const uint64_t pages =
      std::min<uint64_t>(st.num_pages(), in.opts.engine.rs.memory.pages);
  for (nmrs::PageId p = 0; p < pages; ++p) {
    NMRS_RETURN_IF_ERROR(st.ReadPage(p, &*rep->loaded));  // appends
  }
  if (in.spec.shards > 1) {
    nmrs::ShardPlanOptions plan = in.opts.shard_plan;
    plan.num_shards = in.spec.shards;
    ScopedSpan s(tr, "shard.partition");
    auto sharded = nmrs::ShardedDataset::Partition(*rep->prep, plan);
    if (!sharded.ok()) return sharded.status();
    rep->sharded.emplace(std::move(*sharded));
  }
  return rep;
}

struct LayerSamples {
  std::vector<double> query_ms, phase1_ms, phase2_ms, mchecks_per_s;
  std::vector<double> kernel_mchecks_per_s, nodes_per_row;
  std::vector<double> altree_share;  // build time per query / phase 1
};

// The direct per-module calls of one traced read request, on query `q`:
// only those of the layers the workload's own Database calls reach.
Status ProbeLayers(const Inputs& in, Replica& rep, const Object& q,
                   size_t request, Tracer* tr, LayerSamples* ls) {
  const SimilaritySpace& space = *in.space;
  const nmrs::StoredDataset& st = rep.prep->stored;
  const nmrs::Schema& schema = st.schema();
  const std::vector<nmrs::AttrId> selected =
      nmrs::ResolveSelectedAttrs(schema, {});

  std::optional<nmrs::QueryDistanceTable> table;
  {
    ScopedSpan s(tr, "core.distance_table");
    table.emplace(space, schema, q, selected);
  }

  nmrs::RSOptions rs = in.opts.engine.rs;
  double phase1 = 0;
  uint64_t phase1_batches = 0;
  {
    const int64_t t0 = NowNs();
    StatusOr<nmrs::ReverseSkylineResult> r = [&] {
      ScopedSpan s(tr, "core.query");
      return nmrs::RunReverseSkyline(*rep.prep, space, q, in.spec.algo, rs);
    }();
    const int64_t t1 = NowNs();
    if (!r.ok()) return r.status();
    ls->query_ms.push_back(MsBetween(t0, t1));
    ls->phase1_ms.push_back(r->stats.phase1_millis);
    ls->phase2_ms.push_back(r->stats.phase2_millis);
    ls->mchecks_per_s.push_back(
        Ratio(static_cast<double>(r->stats.checks),
              r->stats.compute_millis * 1e3));
    phase1 = r->stats.phase1_millis;
    phase1_batches = r->stats.phase1_batches;
  }

  {
    nmrs::PagedReader reader(st.disk());
    nmrs::Page page(st.disk()->page_size());
    for (int i = 0; i < kPageReadsPerRequest; ++i) {
      const nmrs::PageId p =
          (request * kPageReadsPerRequest + i) % st.num_pages();
      ScopedSpan s(tr, "storage.page_read");
      NMRS_RETURN_IF_ERROR(reader.ReadPage(st.file(), p, &page));
    }
  }

  nmrs::ColumnarBatch cols;
  {
    ScopedSpan s(tr, "data.columnar_build");
    cols.Build(*rep.loaded);
  }
  {
    nmrs::PruneContext ctx(space, schema, q, selected, &*table);
    nmrs::DominanceKernel kernel(ctx, cols);
    uint64_t checks = 0;
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tr, "core.kernel_count");
      for (int c = 0; c < kKernelCandidates; ++c) {
        const size_t x = (request * kKernelCandidates + c) * 7919 % cols.size();
        ctx.SetCandidate(rep.loaded->row_values(x),
                         rep.loaded->row_numerics(x));
        kernel.BeginCandidate();
        kernel.CountPruners(0, cols.size(), &checks);
      }
    }
    const int64_t t1 = NowNs();
    ls->kernel_mchecks_per_s.push_back(
        Ratio(static_cast<double>(checks), (t1 - t0) / 1e3));
  }

  if (in.spec.algo == Algorithm::kTRS) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tr, "altree.build");
      nmrs::ALTree tree(schema, rep.prep->attr_order);
      for (size_t i = 0; i < rep.loaded->size(); ++i) {
        tree.Insert(rep.loaded->id(i), rep.loaded->row_values(i),
                    rep.loaded->row_numerics(i));
      }
      tree.PrepareForSearch();
      ls->nodes_per_row.push_back(
          Ratio(static_cast<double>(tree.num_nodes()),
                static_cast<double>(rep.loaded->size())));
    }
    const double build_ms = MsBetween(t0, NowNs());
    ls->altree_share.push_back(
        Ratio(build_ms * static_cast<double>(phase1_batches), phase1));
  }

  if (rep.sharded) {
    nmrs::RowBatch cand(schema.num_attributes(), schema.NumNumeric() > 0);
    const size_t n = std::min(kExchangeCandidates, rep.loaded->size());
    for (size_t i = 0; i < n; ++i) {
      cand.Append(rep.loaded->id(i), rep.loaded->row_values(i),
                  rep.loaded->row_numerics(i));
    }
    for (int s = 0; s < rep.sharded->num_shards(); ++s) {
      const nmrs::StoredDataset& shard = rep.sharded->shard(s);
      nmrs::PagedReader reader(shard.disk());
      std::vector<uint8_t> pruned;
      nmrs::QueryStats qs;
      ScopedSpan sp(tr, "core.exchange_prune");
      NMRS_RETURN_IF_ERROR(nmrs::PruneCandidatesAgainstShard(
          shard, space, q, cand, rs, &reader, &pruned, &qs));
    }
  }

  if (in.spec.overlay) {
    nmrs::PagedReader reader(st.disk());
    nmrs::OverlayClassification cls;
    {
      ScopedSpan s(tr, "exec.overlay_classify");
      NMRS_RETURN_IF_ERROR(nmrs::ClassifyOverlayRows(
          st, &reader, in.overlay_ptrs, selected, &cls));
    }
    {
      std::vector<size_t> group;
      for (size_t u = 0; u < in.overlay_ptrs.size(); ++u) {
        if (!cls.user_rows[u].empty()) group.push_back(u);
      }
      std::vector<std::vector<uint8_t>> alive(group.size());
      for (size_t i = 0; i < group.size(); ++i) {
        alive[i].assign(cls.user_rows[group[i]].size(), 1);
      }
      nmrs::QueryStats qs;
      ScopedSpan s(tr, "exec.overlay_recheck");
      NMRS_RETURN_IF_ERROR(nmrs::RecheckOverlayGroup(
          st, &reader, space, q, selected, in.overlay_ptrs, group, cls,
          &alive, &qs));
    }
    const size_t u = request % in.overlays.size();
    ScopedSpan s(tr, "sim.overlay_patch");
    SimilaritySpace patched = in.overlays[u].BuildPatchedSpace();
    (void)patched;
  }
  return Status::OK();
}

// Counters read from one Database batch result.
struct BatchCounters {
  double answers = 0, queries = 0;
  double checks = 0, pair_tests = 0, survivors = 0, result_rows = 0;
  double block_rows = 0, scalar_rows = 0, promotions = 0;
  double reads = 0, writes = 0, hits = 0, misses = 0, evictions = 0;
  double modeled_io_ms = 0;
  double messages = 0, bytes = 0, modeled_net_ms = 0;
  double sensitive = 0, invariant = 0, recheck_checks = 0;
  std::vector<double> busy_frac, straggler;

  void AddQueries(const std::vector<nmrs::ReverseSkylineResult>& results,
                  double wall_ms) {
    std::vector<double> compute;
    for (const auto& r : results) {
      checks += r.stats.checks;
      pair_tests += r.stats.pair_tests;
      survivors += r.stats.phase1_survivors;
      result_rows += r.rows.size();
      block_rows += r.stats.kernel_block_rows;
      scalar_rows += r.stats.kernel_scalar_rows;
      promotions += r.stats.kernel_promotions;
      compute.push_back(r.stats.compute_millis);
    }
    queries += results.size();
    double sum = 0;
    for (double c : compute) sum += c;
    busy_frac.push_back(Ratio(sum, wall_ms * kWorkers));
    straggler.push_back(
        Ratio(*std::max_element(compute.begin(), compute.end()),
              Median(compute)));
  }
  void AddIo(const nmrs::IoStats& io) {
    reads += io.TotalReads();
    writes += io.TotalWrites();
    hits += io.cache_hits;
    misses += io.cache_misses;
    evictions += io.cache_evictions;
    modeled_io_ms += nmrs::IoCostModel{}.EstimateMillis(io);
  }
  void AddMessages(const nmrs::ShardedBatchResult& r) {
    messages += r.total_messages.messages;
    bytes += r.total_messages.bytes;
    modeled_net_ms += r.ExchangeModeledMillis();
  }
};

void PutBatchCounters(const BatchCounters& c, const Spec& spec,
                      RunResult* r) {
  const double a = c.answers;
  Put(r, "storage.pages_read_per_answer", Ratio(c.reads, a));
  Put(r, "storage.pages_written_per_answer", Ratio(c.writes, a));
  Put(r, "storage.cache_hit_ratio", Ratio(c.hits, c.hits + c.misses));
  Put(r, "storage.cache_evictions_per_answer", Ratio(c.evictions, a));
  Put(r, "storage.modeled_io_ms_per_answer", Ratio(c.modeled_io_ms, a));
  Put(r, "core.checks_per_answer", Ratio(c.checks, a));
  Put(r, "core.pair_tests_per_answer", Ratio(c.pair_tests, a));
  Put(r, "core.confirm_ratio", Ratio(c.result_rows, c.survivors));
  Put(r, "core.kernel_block_share",
      Ratio(c.block_rows, c.block_rows + c.scalar_rows));
  Put(r, "core.kernel_promotions_per_answer", Ratio(c.promotions, a));
  PutMedian(r, "exec.worker_busy_frac", c.busy_frac);
  PutMedian(r, "exec.straggler_ratio", c.straggler);
  if (spec.shards > 1) {
    Put(r, "shard.net_messages_per_query", Ratio(c.messages, c.queries));
    Put(r, "shard.net_bytes_per_query", Ratio(c.bytes, c.queries));
    Put(r, "shard.modeled_net_ms_per_query",
        Ratio(c.modeled_net_ms, c.queries));
  }
  if (spec.overlay) {
    Put(r, "exec.sensitive_fraction",
        Ratio(c.sensitive, c.sensitive + c.invariant));
    Put(r, "exec.recheck_checks_per_answer", Ratio(c.recheck_checks, a));
  }
}

void PutSpanMedian(RunResult* r, const Tracer& tr, const std::string& span,
                   const std::string& metric, double scale) {
  std::vector<double> v = tr.SelfMillis(span);
  if (!v.empty()) PutMedian(r, metric, v, scale);
}

void PutLayerSamples(const LayerSamples& ls, const Tracer& tr, RunResult* r) {
  PutMedian(r, "core.query_ms", ls.query_ms);
  PutMedian(r, "core.phase1_ms", ls.phase1_ms);
  PutMedian(r, "core.phase2_ms", ls.phase2_ms);
  PutMedian(r, "core.mchecks_per_s", ls.mchecks_per_s);
  PutMedian(r, "core.kernel_mchecks_per_s", ls.kernel_mchecks_per_s);
  PutMedian(r, "altree.nodes_per_row", ls.nodes_per_row);
  if (!ls.altree_share.empty()) {
    PutMedian(r, "altree.build_share", ls.altree_share);
  }
  PutSpanMedian(r, tr, "core.distance_table", "core.distance_table_us", 1e3);
  PutSpanMedian(r, tr, "storage.page_read", "storage.page_read_us", 1e3);
  PutSpanMedian(r, tr, "data.columnar_build", "data.columnar_build_us", 1e3);
  PutSpanMedian(r, tr, "altree.build", "altree.build_ms", 1);
  PutSpanMedian(r, tr, "core.exchange_prune", "core.exchange_prune_ms", 1);
  PutSpanMedian(r, tr, "exec.overlay_classify", "exec.overlay_classify_ms", 1);
  PutSpanMedian(r, tr, "exec.overlay_recheck", "exec.overlay_recheck_ms", 1);
  PutSpanMedian(r, tr, "sim.overlay_patch", "sim.overlay_patch_ms", 1);
  PutSpanMedian(r, tr, "order.prepare", "order.prepare_ms", 1);
  PutSpanMedian(r, tr, "shard.partition", "shard.partition_ms", 1);
  PutSpanMedian(r, tr, "exec.batch", "exec.batch_ms", 1);
  PutSpanMedian(r, tr, "db.snapshot", "db.snapshot_ms", 1);
}

// ---------------------------------------------------------------- read loop

// Answers the read calls returned, checked against the oracle once the
// measuring ends, so the oracle's memory stays out of peak_rss_mb.
struct Observed {
  Answers first;           // [p][u]: the first answer seen for pool query p
  std::vector<char> seen;  // by pool query
  // The pool queries of each call whose answers agreed with earlier ones.
  std::vector<std::vector<size_t>> calls;

  explicit Observed(size_t pool) : first(pool), seen(pool, 0) {}

  // Records call answers `got[i][u]` for pool queries `used`; false when
  // one differs from an earlier answer to the same query.
  bool Record(const std::vector<size_t>& used, Answers got) {
    bool ok = true;
    for (size_t i = 0; i < used.size(); ++i) {
      const size_t p = used[i];
      if (!seen[p]) {
        first[p] = std::move(got[i]);
        seen[p] = 1;
      } else if (got[i] != first[p]) {
        ok = false;
      }
    }
    if (ok) calls.push_back(used);
    return ok;
  }

  // Counts every recorded call with an answer that differs from `want`
  // as failed.
  void Check(const Answers& want, RunResult* out) const {
    for (const auto& used : calls) {
      for (size_t p : used) {
        if (first[p] != want[p]) {
          ++out->failed;
          out->correct = false;
          break;
        }
      }
    }
  }
};

// One read request: pin a snapshot and run one batch (or overlay batch)
// of the pool's next queries, recording the answers.
struct ReadLoop {
  Inputs& in;
  Database* db;
  Observed& seen;

  // A failed call or an answer that contradicts an earlier one counts as
  // a failed operation.
  void Request(Collector* col, Tracer* tr, BatchCounters* bc,
               std::vector<size_t>* used) {
    *used = DrawBatch(in);
    std::vector<Object> qs;
    for (size_t i : *used) qs.push_back(in.pool[i]);
    const bool overlay = in.spec.overlay;
    const int64_t t0 = NowNs();
    StatusOr<nmrs::Snapshot> snap = [&] {
      ScopedSpan s(tr, "db.snapshot");
      return db->Snapshot();
    }();
    std::optional<StatusOr<nmrs::DbBatchResult>> plain;
    std::optional<StatusOr<nmrs::DbOverlayBatchResult>> over;
    if (snap.ok()) {
      ScopedSpan s(tr, "exec.batch");
      if (overlay) {
        over.emplace(snap->RunOverlayBatch(qs, in.overlay_ptrs));
      } else {
        plain.emplace(snap->RunBatch(qs));
      }
    }
    const int64_t t1 = NowNs();
    const double ms = MsBetween(t0, t1);
    col->timed_ms += ms;

    bool ok = snap.ok();
    Answers got(qs.size());
    if (ok && overlay) {
      ok = over->ok() && (*over)->ok();
      if (ok) {
        const auto& res = (*over)->results();
        for (size_t i = 0; i < qs.size(); ++i) {
          for (size_t u = 0; u < in.overlays.size(); ++u) {
            got[i].push_back(SortedKeys(*snap, res[i][u].rows));
          }
        }
        col->answers += qs.size() * in.overlays.size();
        if (bc != nullptr) {
          const nmrs::OverlayBatchResult& r = *(*over)->plain;
          bc->answers += qs.size() * in.overlays.size();
          bc->AddQueries(r.base.results, r.base.wall_millis);
          bc->AddIo(r.total_io);
          bc->sensitive += r.sensitive_rows;
          bc->invariant += r.invariant_rows;
          bc->recheck_checks += r.recheck_checks;
        }
      }
    } else if (ok) {
      ok = plain->ok() && (*plain)->ok();
      if (ok) {
        const nmrs::DbBatchResult& res = **plain;
        for (size_t i = 0; i < qs.size(); ++i) {
          std::vector<uint64_t> ks = res.keys[i];
          std::sort(ks.begin(), ks.end());
          got[i].push_back(std::move(ks));
        }
        col->answers += qs.size();
        if (bc != nullptr) {
          bc->answers += qs.size();
          bc->AddQueries(res.results(), res.wall_millis());
          bc->AddIo(res.total_io());
          if (res.sharded) bc->AddMessages(*res.sharded);
        }
      }
    }
    if (ok) ok = seen.Record(*used, std::move(got));
    col->Call(ok);
    col->batch_ms.push_back(ms);
  }
};

// ---------------------------------------------------------------- mixed_rw

// In-memory mirror of the mutation history, indexed by stable key. A
// Database snapshot's logical row order is ascending stable key (base
// rows, then inserts in insert order; compaction keeps that order), so the
// mirror rebuilds the merged dataset by walking live keys in order. Keys
// are never reused, so a copy of `alive` is enough to rebuild the rows of
// an earlier moment.
struct Mirror {
  size_t width = 0;             // attributes per row
  std::vector<ValueId> values;  // `width` values per key
  std::vector<bool> alive;      // by key
  std::vector<uint64_t> live;   // live keys, any order
  std::vector<size_t> pos;      // key -> index in live

  void Add(uint64_t key, const ValueId* v) {
    if (alive.size() <= key) {
      values.resize((key + 1) * width);
      alive.resize(key + 1, false);
      pos.resize(key + 1, 0);
    }
    std::copy(v, v + width, values.begin() + key * width);
    alive[key] = true;
    pos[key] = live.size();
    live.push_back(key);
  }
  void Remove(uint64_t key) {
    alive[key] = false;
    const size_t i = pos[key];
    live[i] = live.back();
    pos[live[i]] = i;
    live.pop_back();
  }
  // The rows of the keys set in `mask`, and those keys.
  Dataset Rebuild(const nmrs::Schema& schema, const std::vector<bool>& mask,
                  std::vector<uint64_t>* keys) const {
    Dataset d(schema);
    keys->clear();
    std::vector<ValueId> row(width);
    for (uint64_t k = 0; k < mask.size(); ++k) {
      if (!mask[k]) continue;
      std::copy_n(values.begin() + k * width, width, row.begin());
      d.AppendCategoricalRow(row);
      keys->push_back(k);
    }
    return d;
  }
};

// A checked mixed_rw batch: the live keys when it ran, its pool queries
// and the sorted keys it returned for each.
struct Checkpoint {
  std::vector<bool> alive;
  std::vector<size_t> used;
  std::vector<std::vector<uint64_t>> got;
};

struct MixedLoop {
  Inputs& in;
  Database* db;
  Mirror mirror;
  uint64_t row_bytes = 0;
  uint64_t mutations = 0;
  uint64_t cycles = 0;
  // Traced runs: private WAL and delta fed the same records.
  nmrs::SimulatedDisk wal_disk;
  std::unique_ptr<nmrs::WalWriter> wal;
  std::unique_ptr<nmrs::DeltaSegment> delta;
  std::unique_ptr<Replica> replica;
  std::vector<double> snapshot_pages, compact_pages, compact_ms;
  std::vector<Checkpoint> checks;

  MixedLoop(Inputs& inputs, Database* d) : in(inputs), db(d) {
    mirror.width = in.data->num_attributes();
    for (uint64_t r = 0; r < in.data->num_rows(); ++r) {
      mirror.Add(r, in.data->RowValues(r));
    }
    row_bytes = nmrs::RowCodec(in.data->schema(), nmrs::kDefaultPageSize)
                    .row_bytes();
    wal = std::make_unique<nmrs::WalWriter>(&wal_disk, "wal");
    delta = std::make_unique<nmrs::DeltaSegment>(in.data->schema());
  }

  Status Mutate(Collector* col, Tracer* tr) {
    Rng& rng = in.mutation_rng;
    const bool del = mutations % 3 == 2 && !mirror.live.empty();
    ++mutations;
    tr->BeginRequest();
    ScopedSpan root(tr, del ? "request.delete" : "request.insert");
    nmrs::WalRecord rec;
    if (del) {
      const uint64_t key = mirror.live[rng.Uniform(mirror.live.size())];
      const int64_t t0 = NowNs();
      Status st = [&] {
        ScopedSpan s(tr, "db.delete");
        return db->Delete(key);
      }();
      const double ms = MsBetween(t0, NowNs());
      col->timed_ms += ms;
      col->write_us.push_back(ms * 1e3);
      col->Call(st.ok());
      if (!st.ok()) return Status::OK();
      mirror.Remove(key);
      rec.type = nmrs::WalRecord::Type::kDelete;
      rec.key = key;
    } else {
      const nmrs::Schema& schema = in.data->schema();
      std::vector<ValueId> v;
      for (nmrs::AttrId a = 0; a < schema.num_attributes(); ++a) {
        v.push_back(
            static_cast<ValueId>(rng.Uniform(schema.attribute(a).cardinality)));
      }
      const int64_t t0 = NowNs();
      StatusOr<uint64_t> key = [&] {
        ScopedSpan s(tr, "db.insert");
        return db->Insert(v);
      }();
      const double ms = MsBetween(t0, NowNs());
      col->timed_ms += ms;
      col->write_us.push_back(ms * 1e3);
      col->Call(key.ok());
      if (!key.ok()) return Status::OK();
      rec.type = nmrs::WalRecord::Type::kInsert;
      rec.key = *key;
      mirror.Add(*key, v.data());
      rec.values = std::move(v);
    }
    if (tr->enabled()) {
      {
        ScopedSpan s(tr, "storage.wal_append");
        NMRS_RETURN_IF_ERROR(wal->Append(rec));
      }
      ScopedSpan s(tr, "data.delta_append");
      if (del) {
        delta->AppendDelete(rec.key);
      } else {
        delta->AppendInsert(rec.key, rec.values.data(), nullptr);
      }
    }
    return Status::OK();
  }

  // Snapshot + batch; `check` keeps the answers for Verify (and, traced,
  // re-prepares the mirror as the replica of the direct calls).
  Status Batch(Collector* col, Tracer* tr, bool check, LayerSamples* ls,
               BatchCounters* bc) {
    const std::vector<size_t> used = DrawBatch(in);
    std::vector<Object> qs;
    for (size_t i : used) qs.push_back(in.pool[i]);
    tr->BeginRequest();
    ScopedSpan root(tr, "request.batch");
    const nmrs::DbStats before = db->stats();
    const int64_t t0 = NowNs();
    StatusOr<nmrs::Snapshot> snap = [&] {
      ScopedSpan s(tr, "db.snapshot");
      return db->Snapshot();
    }();
    std::optional<StatusOr<nmrs::DbBatchResult>> res;
    if (snap.ok()) {
      ScopedSpan s(tr, "exec.batch");
      res.emplace(snap->RunBatch(qs));
    }
    const double ms = MsBetween(t0, NowNs());
    col->timed_ms += ms;
    col->batch_ms.push_back(ms);
    const nmrs::DbStats after = db->stats();
    if (after.snapshots_built > before.snapshots_built) {
      snapshot_pages.push_back(static_cast<double>(
          (after.snapshot_build_io - before.snapshot_build_io).TotalWrites()));
    }
    bool ok = snap.ok() && res->ok() && (*res)->ok();
    if (ok) {
      col->answers += qs.size();
      if (bc != nullptr) {
        bc->answers += qs.size();
        bc->AddQueries((*res)->results(), (*res)->wall_millis());
        bc->AddIo((*res)->total_io());
      }
    }
    if (ok && check) {
      Checkpoint cp{mirror.alive, used, {}};
      for (size_t i = 0; i < qs.size(); ++i) {
        cp.got.push_back((**res).keys[i]);
        std::sort(cp.got.back().begin(), cp.got.back().end());
      }
      checks.push_back(std::move(cp));
      if (tr->enabled()) {
        std::vector<uint64_t> keys;
        auto rep = BuildReplica(
            in, mirror.Rebuild(in.data->schema(), mirror.alive, &keys), tr);
        if (!rep.ok()) return rep.status();
        replica = std::move(*rep);
      }
    }
    col->Call(ok);
    if (tr->enabled() && replica != nullptr) {
      NMRS_RETURN_IF_ERROR(
          ProbeLayers(in, *replica, qs[0], cycles, tr, ls));
    }
    ++cycles;
    return Status::OK();
  }

  Status Compact(Collector* col, Tracer* tr) {
    tr->BeginRequest();
    ScopedSpan root(tr, "request.compact");
    const nmrs::DbStats before = db->stats();
    const int64_t t0 = NowNs();
    Status st = [&] {
      ScopedSpan s(tr, "db.compact");
      return db->Compact();
    }();
    const double ms = MsBetween(t0, NowNs());
    col->timed_ms += ms;
    col->Call(st.ok());
    compact_ms.push_back(ms);
    compact_pages.push_back(static_cast<double>(
        (db->stats().snapshot_build_io - before.snapshot_build_io)
            .TotalWrites()));
    delta = std::make_unique<nmrs::DeltaSegment>(in.data->schema());
    return Status::OK();
  }

  // Re-prepares the mirror's rows at every checkpoint and counts each
  // checked batch whose answers differ from the oracle's as failed.
  Status Verify(RunResult* out) const {
    for (const Checkpoint& cp : checks) {
      std::vector<uint64_t> keys;
      const Dataset rows = mirror.Rebuild(in.data->schema(), cp.alive, &keys);
      std::vector<Object> qs;
      for (size_t i : cp.used) qs.push_back(in.pool[i]);
      NMRS_ASSIGN_OR_RETURN(
          Answers want, OracleAnswers(rows, {in.space.get()}, qs,
                                      in.spec.algo, in.opts.prepare, keys));
      for (size_t i = 0; i < qs.size(); ++i) {
        if (cp.got[i] != want[i][0]) {
          ++out->failed;
          out->correct = false;
          break;
        }
      }
    }
    return Status::OK();
  }

  // Whole compaction periods until `seconds` of loop time have passed and
  // the batch latencies support the tail percentile. One cycle per period,
  // chosen from the mutation stream's seed, is kept for the oracle check.
  Status Run(Collector* col, Tracer* tr, double seconds, size_t min_batches,
             LayerSamples* ls, BatchCounters* bc) {
    const int64_t start = NowNs();
    for (;;) {
      const size_t check = in.mutation_rng.Uniform(in.spec.compact_every);
      for (size_t c = 0; c < in.spec.compact_every; ++c) {
        for (size_t m = 0; m < in.spec.cycle_mutations; ++m) {
          NMRS_RETURN_IF_ERROR(Mutate(col, tr));
        }
        NMRS_RETURN_IF_ERROR(Batch(col, tr, c == check, ls, bc));
      }
      NMRS_RETURN_IF_ERROR(Compact(col, tr));
      const double elapsed = MsBetween(start, NowNs()) / 1e3;
      if (elapsed >= kMaxPhaseSeconds) break;
      if (elapsed >= seconds && col->batch_ms.size() >= min_batches) break;
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------- runs

StatusOr<std::unique_ptr<Database>> OpenTimed(
    const Inputs& in, const nmrs::DatabaseOptions& opts,
    std::vector<double>* secs) {
  std::unique_ptr<Database> db;
  double total = 0;
  for (int i = 0; i < kMaxSetupReps; ++i) {
    if (i >= kSetupReps && total >= kSetupSeconds) break;
    db.reset();
    const int64_t t0 = NowNs();
    auto opened = Database::Open(*in.data, *in.space, opts);
    secs->push_back(MsBetween(t0, NowNs()) / 1e3);
    total += secs->back();
    if (!opened.ok()) return opened.status();
    db = std::move(*opened);
  }
  return db;
}

void PutEndToEnd(const Collector& col, const std::vector<double>& setup,
                 RunResult* r) {
  PutMedian(r, "setup_s", setup);
  Put(r, "answers_per_s", Ratio(col.answers, col.timed_ms / 1e3),
      col.answers);
  PutMedian(r, "batch_p50_ms", col.batch_ms);
  Put(r, "batch_p90_ms", Percentile(col.batch_ms, kTailPct),
      col.batch_ms.size());
  Put(r, "peak_rss_mb", PeakRssMiB());
}

// The write-path metrics of a traced run: spans of `tr`, write latencies
// of `col`, and the database's and loop's counters.
Status PutWriteMetrics(const Tracer& tr, const Collector& col,
                       const MixedLoop& loop, Database* db, RunResult* r) {
  PutSpanMedian(r, tr, "db.insert", "db.insert_us", 1e3);
  PutSpanMedian(r, tr, "db.delete", "db.delete_us", 1e3);
  PutSpanMedian(r, tr, "storage.wal_append", "storage.wal_append_us", 1e3);
  PutSpanMedian(r, tr, "data.delta_append", "data.delta_append_ns", 1e6);
  const std::optional<double> p99 = TailPercentile(col.write_us, 99);
  if (!p99) return Status::ResourceExhausted("too few writes for p99");
  Put(r, "db.write_p99_us", *p99, col.write_us.size());
  PutMedian(r, "db.compact_ms", loop.compact_ms);
  PutMedian(r, "db.snapshot_pages_written", loop.snapshot_pages);
  PutMedian(r, "db.compact_pages_written", loop.compact_pages);

  const nmrs::DbStats st = db->stats();
  const double page = nmrs::kDefaultPageSize;
  const double wal_writes = db->wal_disk().stats().TotalWrites();
  Put(r, "db.write_amp",
      Ratio((wal_writes + st.snapshot_build_io.TotalWrites()) * page,
            static_cast<double>(loop.mutations * loop.row_bytes)));
  NMRS_ASSIGN_OR_RETURN(nmrs::Snapshot live, db->Snapshot());
  const double wal_pages = db->wal_disk().NumPages(db->wal_file());
  Put(r, "db.space_amp",
      Ratio((live.prepared().stored.num_pages() + wal_pages) * page,
            static_cast<double>(db->num_rows() * loop.row_bytes)));
  Put(r, "storage.wal_pages_per_record",
      Ratio(wal_writes, static_cast<double>(st.wal_records)));
  return Status::OK();
}

// Read-only workloads: closed loop of read requests until `seconds` have
// passed and at least `min_batches` calls were made.
Status RunReads(ReadLoop* loop, Collector* col, Tracer* tr, double seconds,
                size_t min_batches, Replica* replica, LayerSamples* ls,
                BatchCounters* bc) {
  const int64_t start = NowNs();
  std::vector<size_t> used;
  for (size_t request = 0;; ++request) {
    tr->BeginRequest();
    {
      ScopedSpan root(tr, "request.batch");
      loop->Request(col, tr, bc, &used);
      if (replica != nullptr) {
        NMRS_RETURN_IF_ERROR(ProbeLayers(loop->in, *replica,
                                         loop->in.pool[used[0]], request, tr,
                                         ls));
      }
    }
    const double elapsed = MsBetween(start, NowNs()) / 1e3;
    if (elapsed >= kMaxPhaseSeconds) break;
    if (elapsed >= seconds && col->batch_ms.size() >= min_batches) break;
  }
  return Status::OK();
}

double AnswersPerSecond(const Collector& c) {
  return Ratio(static_cast<double>(c.answers), c.timed_ms / 1e3);
}

void PutRowSkew(const Replica& rep, RunResult* r) {
  double sum = 0, mx = 0;
  for (uint64_t rows : rep.sharded->RowsPerShard()) {
    sum += rows;
    mx = std::max<double>(mx, rows);
  }
  Put(r, "shard.row_skew", Ratio(mx, sum / rep.sharded->num_shards()));
}

void PutReuseAndOverhead(Database* db, const Collector& traced,
                         const Collector& untraced, RunResult* r) {
  const nmrs::DbStats st = db->stats();
  Put(r, "db.snapshot_reuse_ratio",
      Ratio(st.snapshots_reused, st.snapshots_built + st.snapshots_reused));
  Put(r, "trace.overhead_frac",
      1.0 - Ratio(AnswersPerSecond(traced), AnswersPerSecond(untraced)));
}

// Oracle answers of a read-only workload for every pool query and user.
StatusOr<Answers> ReadOracle(const Inputs& in) {
  std::vector<SimilaritySpace> patched;
  std::vector<const SimilaritySpace*> spaces;
  if (in.overlays.empty()) {
    spaces.push_back(in.space.get());
  } else {
    patched.reserve(in.overlays.size());
    for (const auto& o : in.overlays) patched.push_back(o.BuildPatchedSpace());
    for (const auto& s : patched) spaces.push_back(&s);
  }
  std::vector<uint64_t> keys(in.data->num_rows());
  for (uint64_t r = 0; r < keys.size(); ++r) keys[r] = r;
  return OracleAnswers(*in.data, spaces, in.pool, in.spec.algo,
                       in.opts.prepare, keys);
}

}  // namespace

StatusOr<RunResult> RunWorkload(const RunConfig& cfg) {
  const std::optional<Spec> spec = SpecFor(cfg.workload);
  if (!spec) return Status::InvalidArgument("unknown workload " + cfg.workload);
  std::unique_ptr<Inputs> in = MakeInputs(*spec, cfg.seed);
  RunResult out;

  const nmrs::DatabaseOptions open_opts = in->opts;
  std::vector<double> setup;
  NMRS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        OpenTimed(*in, open_opts, &setup));
  // Database::Open pins the resolved attribute order; replicas reuse it.
  in->opts.prepare = db->options().prepare;
  // The second setup round, after the measuring.
  auto reopen = [&]() -> Status {
    db.reset();
    return OpenTimed(*in, open_opts, &setup).status();
  };

  Tracer off(false);
  Collector warm(&out);
  Collector col(&out);
  const size_t min_batches = MinSamplesForTail(kTailPct);
  const double half = cfg.seconds / 2;

  // Answers are checked against the oracle after the measuring, and the
  // end-to-end metrics (peak_rss_mb among them) are read before it.
  if (spec->mixed) {
    MixedLoop loop(*in, db.get());
    if (!cfg.trace) {
      NMRS_RETURN_IF_ERROR(
          loop.Run(&col, &off, cfg.seconds, min_batches, nullptr, nullptr));
      if (!TailPercentile(col.batch_ms, kTailPct)) {
        return Status::ResourceExhausted("too few batches for batch_p90_ms");
      }
      NMRS_RETURN_IF_ERROR(reopen());
      PutEndToEnd(col, setup, &out);
      NMRS_RETURN_IF_ERROR(loop.Verify(&out));
      return out;
    }
    NMRS_RETURN_IF_ERROR(loop.Run(&col, &off, half, 0, nullptr, nullptr));
    for (const auto& m : kPerLayer) Put(&out, m.name, 0.0, 0);
    Tracer tr(true);
    Collector traced(&out);
    LayerSamples ls;
    BatchCounters bc;
    {
      std::vector<uint64_t> keys;
      auto rep = BuildReplica(
          *in, loop.mirror.Rebuild(in->data->schema(), loop.mirror.alive, &keys),
          &tr);
      if (!rep.ok()) return rep.status();
      loop.replica = std::move(*rep);
    }
    loop.snapshot_pages.clear();
    loop.compact_pages.clear();
    loop.compact_ms.clear();
    NMRS_RETURN_IF_ERROR(loop.Run(&traced, &tr, half, 0, &ls, &bc));
    PutLayerSamples(ls, tr, &out);
    PutBatchCounters(bc, *spec, &out);
    PutReuseAndOverhead(db.get(), traced, col, &out);
    NMRS_RETURN_IF_ERROR(PutWriteMetrics(tr, traced, loop, db.get(), &out));
    NMRS_RETURN_IF_ERROR(loop.Verify(&out));
    return out;
  }

  Observed seen(in->pool.size());
  ReadLoop loop{*in, db.get(), seen};
  // Warm-up, untimed: a pool's worth of queries fills the page caches.
  NMRS_RETURN_IF_ERROR(RunReads(&loop, &warm, &off, 0,
                                in->pool.size() / spec->batch, nullptr,
                                nullptr, nullptr));
  if (!cfg.trace) {
    NMRS_RETURN_IF_ERROR(RunReads(&loop, &col, &off, cfg.seconds, min_batches,
                                  nullptr, nullptr, nullptr));
    if (!TailPercentile(col.batch_ms, kTailPct)) {
      return Status::ResourceExhausted("too few batches for batch_p90_ms");
    }
    NMRS_RETURN_IF_ERROR(reopen());
    PutEndToEnd(col, setup, &out);
  } else {
    NMRS_RETURN_IF_ERROR(
        RunReads(&loop, &col, &off, half, 1, nullptr, nullptr, nullptr));
    for (const auto& m : kPerLayer) Put(&out, m.name, 0.0, 0);
    Tracer tr(true);
    std::unique_ptr<Replica> replica;
    for (int i = 0; i < kSetupReps; ++i) {
      auto rep = BuildReplica(*in, *in->data, &tr);
      if (!rep.ok()) return rep.status();
      replica = std::move(*rep);
    }
    if (replica->sharded) PutRowSkew(*replica, &out);
    Collector traced(&out);
    LayerSamples ls;
    BatchCounters bc;
    NMRS_RETURN_IF_ERROR(RunReads(&loop, &traced, &tr, half, 1,
                                  replica.get(), &ls, &bc));
    PutLayerSamples(ls, tr, &out);
    PutBatchCounters(bc, *spec, &out);
    PutReuseAndOverhead(db.get(), traced, col, &out);
  }
  db.reset();
  NMRS_ASSIGN_OR_RETURN(Answers want, ReadOracle(*in));
  seen.Check(want, &out);
  return out;
}

}  // namespace perfbench
