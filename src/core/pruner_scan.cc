#include "core/pruner_scan.h"

#include <optional>

#include "data/columnar_batch.h"

namespace nmrs {

bool FindPruner(const RowBatch& rows, const PruneContext& ctx,
                DominanceKernel* kernel, SearchOrder order, size_t center,
                RowId skip_id, uint64_t* pair_tests, uint64_t* checks) {
  const size_t n = rows.size();
  if (kernel != nullptr) {
    kernel->BeginCandidate();
    return order == SearchOrder::kForward
               ? kernel->FindPrunerForward(0, n, skip_id, pair_tests, checks)
               : kernel->FindPrunerRing(center, skip_id, pair_tests, checks);
  }
  auto try_pruner = [&](size_t j) {
    if (rows.id(j) == skip_id) return false;
    ++*pair_tests;
    return ctx.Prunes(rows.row_values(j), rows.row_numerics(j), checks);
  };
  if (order == SearchOrder::kForward) {
    for (size_t j = 0; j < n; ++j) {
      if (try_pruner(j)) return true;
    }
    return false;
  }
  // Expanding ring around the center: sorted data puts likely pruners
  // nearby.
  for (size_t off = 1; off < n; ++off) {
    if (off <= center && try_pruner(center - off)) return true;
    if (center + off < n && try_pruner(center + off)) return true;
  }
  return false;
}

Status RefineAgainstPages(const StoredDataset& data, PagedReader* reader,
                          const RowBatch& candidates, bool skip_own_id,
                          const RSOptions& opts, PruneContext& ctx,
                          std::vector<uint8_t>* pruned, QueryStats* stats) {
  pruned->assign(candidates.size(), 0);
  const Schema& schema = data.schema();
  RowBatch page(schema.num_attributes(), schema.NumNumeric() > 0);
  ColumnarBatch cols;
  for (PageId p = 0; p < data.num_pages(); ++p) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    std::optional<DominanceKernel> kernel;
    if (opts.use_kernels) {
      cols.Build(page);
      kernel.emplace(ctx, cols, opts.kernel_promote_rows);
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*pruned)[i]) continue;
      ctx.SetCandidate(candidates.row_values(i), candidates.row_numerics(i));
      const RowId skip_id = skip_own_id ? candidates.id(i) : kInvalidRowId;
      if (FindPruner(page, ctx, kernel ? &*kernel : nullptr,
                     SearchOrder::kForward, 0, skip_id, &stats->pair_tests,
                     &stats->checks)) {
        (*pruned)[i] = 1;
      }
    }
    if (kernel) kernel->AddTelemetryTo(stats);
  }
  return Status::OK();
}

}  // namespace nmrs
