#include "exec/overlay_exec.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "core/pruner_scan.h"
#include "core/query_distance_table.h"
#include "sim/matrix_overlay.h"

namespace nmrs {

Status ClassifyOverlayRows(const StoredDataset& data, PagedReader* reader,
                           const std::vector<const MatrixOverlay*>& overlays,
                           const std::vector<AttrId>& selected,
                           OverlayClassification* out) {
  NMRS_CHECK(!selected.empty()) << "pass a resolved selection";
  Timer timer;
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  out->sensitive = RowBatch(m, numerics);
  out->user_rows.assign(overlays.size(), {});
  out->rows_scanned = 0;

  RowBatch page(m, numerics);
  std::vector<uint8_t> hit(overlays.size());
  for (PageId p = 0; p < data.num_pages(); ++p) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    for (size_t i = 0; i < page.size(); ++i) {
      ++out->rows_scanned;
      const ValueId* vals = page.row_values(i);
      bool any = false;
      for (size_t u = 0; u < overlays.size(); ++u) {
        hit[u] = overlays[u] != nullptr &&
                 overlays[u]->RowSensitive(vals, selected);
        any |= hit[u] != 0;
      }
      if (!any) continue;
      const uint32_t idx = static_cast<uint32_t>(out->sensitive.size());
      out->sensitive.Append(page.id(i), vals, page.row_numerics(i));
      for (size_t u = 0; u < overlays.size(); ++u) {
        if (hit[u]) out->user_rows[u].push_back(idx);
      }
    }
  }
  out->classify_millis = timer.ElapsedMillis();
  return Status::OK();
}

Status RecheckOverlayGroup(const StoredDataset& data, PagedReader* reader,
                           const SimilaritySpace& space, const Object& query,
                           const std::vector<AttrId>& selected,
                           const std::vector<const MatrixOverlay*>& overlays,
                           const std::vector<size_t>& group_users,
                           const OverlayClassification& cls,
                           std::vector<std::vector<uint8_t>>* alive,
                           QueryStats* stats) {
  NMRS_CHECK_EQ(alive->size(), group_users.size());
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;

  // One overlaid (table, context) pair per group user; the contexts keep
  // their patched-column scratch across candidates and pages.
  std::vector<std::unique_ptr<QueryDistanceTable>> tables;
  std::vector<std::unique_ptr<PruneContext>> ctxs;
  std::vector<size_t> pending(group_users.size());
  tables.reserve(group_users.size());
  ctxs.reserve(group_users.size());
  for (size_t g = 0; g < group_users.size(); ++g) {
    const size_t u = group_users[g];
    NMRS_CHECK(overlays[u] != nullptr);
    NMRS_CHECK_EQ((*alive)[g].size(), cls.user_rows[u].size());
    tables.push_back(std::make_unique<QueryDistanceTable>(
        space, schema, query, selected, overlays[u]));
    ctxs.push_back(std::make_unique<PruneContext>(space, schema, query,
                                                  selected,
                                                  tables.back().get()));
    pending[g] = cls.user_rows[u].size();
  }

  RowBatch page(m, numerics);
  for (PageId p = 0; p < data.num_pages(); ++p) {
    bool anything_alive = false;
    for (size_t n : pending) anything_alive |= n > 0;
    if (!anything_alive) break;  // every candidate of every user pruned
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    for (size_t g = 0; g < group_users.size(); ++g) {
      if (pending[g] == 0) continue;
      const size_t u = group_users[g];
      PruneContext& ctx = *ctxs[g];
      const std::vector<uint32_t>& rows = cls.user_rows[u];
      std::vector<uint8_t>& live = (*alive)[g];
      for (size_t j = 0; j < rows.size(); ++j) {
        if (!live[j]) continue;
        const uint32_t idx = rows[j];
        const RowId x_id = cls.sensitive.id(idx);
        ctx.SetCandidate(cls.sensitive.row_values(idx),
                         cls.sensitive.row_numerics(idx));
        // A row never prunes itself: skip x_id.
        if (FindPruner(page, ctx, nullptr, SearchOrder::kForward, 0, x_id,
                       &stats->pair_tests, &stats->checks)) {
          live[j] = 0;
          --pending[g];
        }
      }
    }
  }
  return Status::OK();
}

std::vector<RowId> MergeOverlayRows(const std::vector<RowId>& base_rows,
                                    const OverlayClassification& cls,
                                    size_t user,
                                    const std::vector<uint8_t>& alive) {
  const std::vector<uint32_t>& rows = cls.user_rows[user];
  NMRS_CHECK_EQ(alive.size(), rows.size());
  std::vector<RowId> sensitive_ids;
  sensitive_ids.reserve(rows.size());
  for (uint32_t idx : rows) sensitive_ids.push_back(cls.sensitive.id(idx));
  std::sort(sensitive_ids.begin(), sensitive_ids.end());

  std::vector<RowId> merged;
  merged.reserve(base_rows.size() + rows.size());
  for (RowId r : base_rows) {
    if (!std::binary_search(sensitive_ids.begin(), sensitive_ids.end(), r)) {
      merged.push_back(r);
    }
  }
  for (size_t j = 0; j < rows.size(); ++j) {
    if (alive[j]) merged.push_back(cls.sensitive.id(rows[j]));
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace nmrs
