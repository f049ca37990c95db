#include "core/shard_exchange.h"

#include <algorithm>

#include "core/dominance.h"
#include "core/pruner_scan.h"
#include "core/query_distance_table.h"

namespace nmrs {

Status CollectRowsById(const StoredDataset& data, PagedReader* reader,
                       const std::vector<RowId>& ids, RowBatch* out) {
  if (ids.empty()) return Status::OK();
  const Schema& schema = data.schema();
  RowBatch page(schema.num_attributes(), schema.NumNumeric() > 0);
  size_t found = 0;
  const uint64_t num_pages = data.num_pages();
  for (PageId p = 0; p < num_pages && found < ids.size(); ++p) {
    page.Clear();
    NMRS_RETURN_IF_ERROR(data.ReadPageVia(reader, p, &page));
    for (size_t r = 0; r < page.size(); ++r) {
      if (!std::binary_search(ids.begin(), ids.end(), page.id(r))) continue;
      out->Append(page.id(r), page.row_values(r), page.row_numerics(r));
      ++found;
    }
  }
  if (found < ids.size()) {
    return Status::InvalidArgument(
        "CollectRowsById: some requested rows do not exist in the dataset");
  }
  return Status::OK();
}

Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats) {
  pruned->assign(candidates.size(), 0);
  if (candidates.size() == 0) return Status::OK();
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(data.schema(), opts.selected_attrs);
  const QueryDistanceTable qtable(space, data.schema(), query, selected,
                                  opts.overlay);
  PruneContext ctx(space, data.schema(), query, selected, &qtable);
  return RefineAgainstPages(data, reader, candidates, /*skip_own_id=*/true,
                            opts, ctx, pruned, stats);
}

}  // namespace nmrs
