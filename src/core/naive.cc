#include "core/naive.h"

#include <algorithm>
#include <optional>

#include "common/timer.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/pruner_scan.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "storage/paged_reader.h"

namespace nmrs {

StatusOr<ReverseSkylineResult> NaiveReverseSkyline(
    const StoredDataset& data, const SimilaritySpace& space,
    const Object& query, const RSOptions& opts) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

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

  const uint64_t total_pages = data.num_pages();
  RowBatch outer(m, numerics);
  RowBatch inner(m, numerics);
  // Kernel path: column-major view of the current inner page and one
  // kernel over it, both cached by page id — the restart pattern means
  // consecutive candidates mostly get pruned inside the same early page,
  // so the transpose and the kernel's setup amortize.
  ColumnarBatch cols;
  std::optional<DominanceKernel> kernel;
  PageId cols_page = 0;
  for (PageId op = 0; op < total_pages; ++op) {
    outer.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(&reader, op, &outer));
    for (size_t i = 0; i < outer.size(); ++i) {
      ctx.SetCandidate(outer.row_values(i), outer.row_numerics(i));
      const RowId x_id = outer.id(i);
      bool pruned = false;
      // Scan D from the beginning, page by page, until a pruner shows up.
      // The restart pattern makes early pages far hotter than late ones —
      // exactly the skew a small buffer pool absorbs.
      for (PageId ip = 0; ip < total_pages && !pruned; ++ip) {
        inner.Clear();
        NMRS_RETURN_IF_ERROR(data.ReadPageVia(&reader, ip, &inner));
        if (opts.use_kernels && (!kernel || cols_page != ip)) {
          if (kernel) kernel->AddTelemetryTo(&stats);
          cols.Build(inner);
          kernel.emplace(ctx, cols, opts.kernel_promote_rows);
          cols_page = ip;
        }
        pruned = FindPruner(inner, ctx, kernel ? &*kernel : nullptr,
                            SearchOrder::kForward, 0, x_id, &stats.pair_tests,
                            &stats.checks);
      }
      if (!pruned) result.rows.push_back(x_id);
    }
  }

  if (kernel) kernel->AddTelemetryTo(&stats);
  std::sort(result.rows.begin(), result.rows.end());
  stats.phase1_checks = stats.checks;
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace nmrs
