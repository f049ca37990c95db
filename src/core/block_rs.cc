#include "core/block_rs.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/sync.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/pruner_scan.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "storage/paged_reader.h"

namespace nmrs {

namespace {

// Checks candidates [begin, end) of `batch` against all loaded rows and
// records which are pruned, on the kernel path when `cols` (the batch's
// columnar view) is given. `ctx` and `stats` belong to the caller (one
// chunk when parallel), so this runs with no shared mutable state beyond
// the disjoint `pruned` slots — the per-candidate work is identical to the
// sequential scan, which keeps check counts deterministic.
void Phase1CheckRange(const RowBatch& batch, const ColumnarBatch* cols,
                      PruneContext& ctx, SearchOrder order,
                      uint32_t promote_rows, size_t begin, size_t end,
                      QueryStats* stats, uint8_t* pruned) {
  std::optional<DominanceKernel> kernel;
  if (cols != nullptr) kernel.emplace(ctx, *cols, promote_rows);
  for (size_t i = begin; i < end; ++i) {
    ctx.SetCandidate(batch.row_values(i), batch.row_numerics(i));
    pruned[i] = FindPruner(batch, ctx, kernel ? &*kernel : nullptr, order, i,
                           batch.id(i), &stats->pair_tests, &stats->checks);
  }
  if (kernel) kernel->AddTelemetryTo(stats);
}

// Intra-batch pruning of one loaded batch; appends survivors to *writer.
// Pruned objects keep acting as pruners (paper Alg. 2 lines 4-7 iterate all
// loaded Y). The candidate checks run as one loop over chunks: a single
// chunk on the caller's `ctx` without intra-query threads, otherwise four
// chunks per thread (each with its own PruneContext and QueryStats,
// summed in chunk order) so the work-stealing pool can balance the uneven
// per-candidate cost (a candidate pruned early is cheap). Survivors are
// still written in scan order, so results, check totals, and IO match the
// one-chunk run exactly.
Status Phase1Batch(const RowBatch& batch, const SimilaritySpace& space,
                   const Schema& schema, const Object& query,
                   const RSOptions& opts, PruneContext& ctx,
                   const QueryDistanceTable& qtable, SearchOrder order,
                   QueryStats* stats, RowWriter* writer) {
  const size_t n = batch.size();
  std::vector<uint8_t> pruned(n, 0);
  // One columnar (SoA) view per loaded batch feeds every candidate's
  // kernel scans; chunks share it read-only.
  ColumnarBatch cols;
  if (opts.use_kernels) cols.Build(batch);
  const ColumnarBatch* view = opts.use_kernels ? &cols : nullptr;
  const size_t num_chunks = NumChunks(opts.num_threads, n, 4);
  std::vector<QueryStats> chunk_stats(num_chunks);
  ParallelChunks(opts.executor, opts.num_threads, num_chunks, [&](size_t c) {
    std::optional<PruneContext> chunk_ctx;
    if (num_chunks > 1) {
      chunk_ctx.emplace(space, schema, query, ctx.selected(), &qtable);
    }
    Phase1CheckRange(batch, view, chunk_ctx ? *chunk_ctx : ctx, order,
                     opts.kernel_promote_rows, ChunkBegin(n, num_chunks, c),
                     ChunkBegin(n, num_chunks, c + 1), &chunk_stats[c],
                     pruned.data());
  });
  for (const QueryStats& cs : chunk_stats) stats->MergeFrom(cs);
  for (size_t i = 0; i < n; ++i) {
    if (!pruned[i]) {
      NMRS_RETURN_IF_ERROR(writer->Add(batch.id(i), batch.row_values(i),
                                       batch.row_numerics(i)));
    }
  }
  return Status::OK();
}

// Phase 2 (paper Alg. 2 lines 9-19): survivors R are consumed in batches of
// (memory-1) pages; each batch is refined by one full sequential scan of D
// (RefineAgainstPages).
Status Phase2(const StoredDataset& data, const StoredDataset& survivors,
              PagedReader* reader, PruneContext& ctx, uint64_t batch_pages,
              const RSOptions& opts, QueryStats* stats,
              std::vector<RowId>* out) {
  const Schema& schema = data.schema();
  const uint64_t r_pages = survivors.num_pages();
  std::vector<uint8_t> pruned;
  for (PageId r_start = 0; r_start < r_pages; r_start += batch_pages) {
    ++stats->phase2_batches;
    const PageId r_end = std::min<PageId>(r_start + batch_pages, r_pages);
    RowBatch batch(schema.num_attributes(), schema.NumNumeric() > 0);
    for (PageId p = r_start; p < r_end; ++p) {
      NMRS_RETURN_IF_ERROR(survivors.ReadPageVia(reader, p, &batch));
    }
    NMRS_RETURN_IF_ERROR(RefineAgainstPages(data, reader, batch,
                                            /*skip_own_id=*/true, opts, ctx,
                                            &pruned, stats));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!pruned[i]) out->push_back(batch.id(i));
    }
  }
  return Status::OK();
}

StatusOr<ReverseSkylineResult> RunBlockAlgorithm(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts, SearchOrder order) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "block algorithms need a memory budget of at least 2 pages");
  }

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  PagedReader reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, query, selected,
                                  opts.overlay);
  PruneContext ctx(space, schema, query, selected, &qtable);
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  // ---- Phase 1: intra-batch pruning, spill survivors. ----
  Timer phase1_timer;
  FileId scratch = disk->CreateFile("rs-scratch");
  RowWriter writer(disk, scratch, schema, opts.resilience.checksum_pages);
  const uint64_t total_pages = data.num_pages();
  for (PageId start = 0; start < total_pages; start += opts.memory.pages) {
    ++stats.phase1_batches;
    const PageId end =
        std::min<PageId>(start + opts.memory.pages, total_pages);
    RowBatch batch(m, numerics);
    for (PageId p = start; p < end; ++p) {
      NMRS_RETURN_IF_ERROR(data.ReadPageVia(&reader, p, &batch));
    }
    NMRS_RETURN_IF_ERROR(Phase1Batch(batch, space, schema, query, opts, ctx,
                                     qtable, order, &stats, &writer));
    // Results are written out at the end of every batch (paper §4.1) —
    // this is what makes the per-batch random IO visible.
    NMRS_RETURN_IF_ERROR(writer.FlushPartial());
  }
  NMRS_RETURN_IF_ERROR(writer.Finish());
  stats.phase1_survivors = writer.rows_written();
  stats.phase1_checks = stats.checks;
  stats.phase1_millis = phase1_timer.ElapsedMillis();

  // ---- Phase 2: refine survivors against full scans of D. ----
  Timer phase2_timer;
  StoredDataset survivors(disk, scratch, schema, writer.rows_written(),
                          opts.resilience.checksum_pages);
  const uint64_t batch_pages = opts.memory.pages - 1;  // 1 page scans D
  NMRS_RETURN_IF_ERROR(Phase2(data, survivors, &reader, ctx, batch_pages,
                              opts, &stats, &result.rows));
  stats.phase2_checks = stats.checks - stats.phase1_checks;
  stats.phase2_millis = phase2_timer.ElapsedMillis();

  NMRS_RETURN_IF_ERROR(disk->DeleteFile(scratch));

  std::sort(result.rows.begin(), result.rows.end());
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace

StatusOr<ReverseSkylineResult> BlockReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts) {
  return RunBlockAlgorithm(data, space, query, opts, SearchOrder::kForward);
}

StatusOr<ReverseSkylineResult> SortReverseSkyline(
    const StoredDataset& sorted_data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts) {
  return RunBlockAlgorithm(sorted_data, space, query, opts,
                           SearchOrder::kRing);
}

StatusOr<std::vector<ReverseSkylineResult>> SharedScanReverseSkylines(
    const StoredDataset& data, const SimilaritySpace& space,
    const std::vector<Object>& queries, const RSOptions& opts,
    bool ring_order, SharedScanStats* shared) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "block algorithms need a memory budget of at least 2 pages");
  }
  SharedScanStats discard;
  if (shared == nullptr) shared = &discard;
  std::vector<ReverseSkylineResult> results(queries.size());
  if (queries.empty()) return results;

  const SearchOrder order =
      ring_order ? SearchOrder::kRing : SearchOrder::kForward;
  const size_t nq = queries.size();

  disk->InvalidateArmPosition();
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);

  // Per-query derived state. Every query evaluates the same candidates in
  // the same order as its single-query run; only the loop nesting changes
  // (candidate-major instead of query-major), which the bit-identity
  // contract survives because the per-(query, candidate) work is
  // independent.
  struct QueryRun {
    std::unique_ptr<QueryDistanceTable> qtable;
    std::unique_ptr<PruneContext> ctx;
    std::unique_ptr<DominanceKernel> kernel;  // rebuilt per loaded batch
    FileId scratch = 0;
    std::unique_ptr<RowWriter> writer;
  };
  std::vector<QueryRun> runs(nq);
  for (size_t q = 0; q < nq; ++q) {
    runs[q].qtable = std::make_unique<QueryDistanceTable>(
        space, schema, queries[q], selected, opts.overlay);
    runs[q].ctx = std::make_unique<PruneContext>(space, schema, queries[q],
                                                 selected, runs[q].qtable.get());
    runs[q].scratch = disk->CreateFile("rs-shared-scratch");
    runs[q].writer = std::make_unique<RowWriter>(
        disk, runs[q].scratch, schema, opts.resilience.checksum_pages);
  }

  // ---- Phase 1: one scan of D feeds every query's intra-batch pruning ----
  Timer shared_timer;
  PagedReader shared_reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
  const IoStats phase1_before = disk->stats();
  IoStats spill_io;  // per-query scratch writes inside the phase-1 window
  SharedCandidateCache cache;
  const uint64_t total_pages = data.num_pages();
  std::vector<uint8_t> pruned;
  for (PageId start = 0; start < total_pages; start += opts.memory.pages) {
    const PageId end =
        std::min<PageId>(start + opts.memory.pages, total_pages);
    RowBatch batch(m, numerics);
    for (PageId p = start; p < end; ++p) {
      NMRS_RETURN_IF_ERROR(data.ReadPageVia(&shared_reader, p, &batch));
    }
    const size_t n = batch.size();
    ColumnarBatch cols;
    if (opts.use_kernels) {
      cols.Build(batch);
      cache.Attach(*runs[0].ctx, cols);
      for (QueryRun& r : runs) {
        r.kernel = std::make_unique<DominanceKernel>(
            *r.ctx, cols, opts.kernel_promote_rows, &cache);
      }
    }
    pruned.assign(nq * n, 0);
    for (size_t i = 0; i < n; ++i) {
      // Candidate-major: fix candidate X on every query's context, gather
      // its attribute blocks once (the shared cache), then run each
      // query's compare-only pruner search.
      for (QueryRun& r : runs) {
        r.ctx->SetCandidate(batch.row_values(i), batch.row_numerics(i));
      }
      if (opts.use_kernels) cache.SetCandidate(*runs[0].ctx);
      for (size_t q = 0; q < nq; ++q) {
        QueryRun& r = runs[q];
        QueryStats& st = results[q].stats;
        pruned[q * n + i] =
            FindPruner(batch, *r.ctx, r.kernel.get(), order, i, batch.id(i),
                       &st.pair_tests, &st.checks);
      }
    }
    // Per-query survivor spills, in scan order, with the writes charged to
    // the query (same FlushPartial cadence as the single-query path).
    for (size_t q = 0; q < nq; ++q) {
      QueryRun& r = runs[q];
      QueryStats& st = results[q].stats;
      ++st.phase1_batches;
      if (opts.use_kernels) r.kernel->AddTelemetryTo(&st);
      const IoStats spill_before = disk->stats();
      for (size_t i = 0; i < n; ++i) {
        if (!pruned[q * n + i]) {
          NMRS_RETURN_IF_ERROR(r.writer->Add(batch.id(i), batch.row_values(i),
                                             batch.row_numerics(i)));
        }
      }
      NMRS_RETURN_IF_ERROR(r.writer->FlushPartial());
      const IoStats delta = disk->stats() - spill_before;
      st.io += delta;
      spill_io += delta;
    }
    if (opts.use_kernels) {
      shared->shared_gather_blocks += cache.blocks_filled();
    }
    ++shared->shared_batches;
  }
  for (size_t q = 0; q < nq; ++q) {
    QueryRun& r = runs[q];
    QueryStats& st = results[q].stats;
    const IoStats finish_before = disk->stats();
    NMRS_RETURN_IF_ERROR(r.writer->Finish());
    const IoStats delta = disk->stats() - finish_before;
    st.io += delta;
    spill_io += delta;
    st.phase1_survivors = r.writer->rows_written();
    st.phase1_checks = st.checks;
  }
  shared->shared_io += (disk->stats() - phase1_before) - spill_io;
  shared_reader.FoldStatsInto(&shared->shared_io);
  shared->modeled_backoff_millis += shared_reader.modeled_backoff_millis();
  shared->shared_millis += shared_timer.ElapsedMillis();

  // ---- Phase 2: per query, reusing the single-query refinement ----
  const uint64_t batch_pages = opts.memory.pages - 1;
  for (size_t q = 0; q < nq; ++q) {
    QueryRun& r = runs[q];
    QueryStats& st = results[q].stats;
    Timer phase2_timer;
    disk->InvalidateArmPosition();
    const IoStats phase2_before = disk->stats();
    PagedReader reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
    StoredDataset survivors(disk, r.scratch, schema, r.writer->rows_written(),
                            opts.resilience.checksum_pages);
    NMRS_RETURN_IF_ERROR(Phase2(data, survivors, &reader, *r.ctx, batch_pages,
                                opts, &st, &results[q].rows));
    NMRS_RETURN_IF_ERROR(disk->DeleteFile(r.scratch));
    st.phase2_checks = st.checks - st.phase1_checks;
    st.phase2_millis = phase2_timer.ElapsedMillis();
    st.io += disk->stats() - phase2_before;
    reader.FoldStatsInto(&st.io);
    st.modeled_backoff_millis = reader.modeled_backoff_millis();
    std::sort(results[q].rows.begin(), results[q].rows.end());
    st.result_size = results[q].rows.size();
    // The shared pass isn't attributable per query: phase1_millis stays 0
    // and compute_millis covers this query's own (phase-2) work.
    st.compute_millis = st.phase2_millis;
  }
  return results;
}

}  // namespace nmrs
