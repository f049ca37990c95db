#include "core/bichromatic.h"

#include <algorithm>

#include <optional>

#include "common/timer.h"
#include "core/dominance.h"
#include "core/pruner_scan.h"
#include "core/query_distance_table.h"
#include "core/tree_traversal.h"
#include "sim/matrix_overlay.h"

namespace nmrs {

using internal_tree::FastEntry;
using internal_tree::Phase2Level;
using internal_tree::TraversalEntry;
using internal_tree::TreeQueryContext;

std::vector<RowId> BichromaticOracle(const Dataset& candidates,
                                     const Dataset& competitors,
                                     const SimilaritySpace& space,
                                     const Object& query,
                                     const std::vector<AttrId>& selected) {
  NMRS_CHECK(candidates.schema() == competitors.schema());
  PruneContext ctx(space, candidates.schema(), query, selected);
  std::vector<RowId> result;
  uint64_t checks = 0;
  for (RowId c = 0; c < candidates.num_rows(); ++c) {
    ctx.SetCandidate(candidates.RowValues(c), candidates.RowNumerics(c));
    bool pruned = false;
    for (RowId p = 0; p < competitors.num_rows() && !pruned; ++p) {
      pruned = ctx.Prunes(competitors.RowValues(p),
                          competitors.RowNumerics(p), &checks);
    }
    if (!pruned) result.push_back(c);
  }
  return result;
}

StatusOr<ReverseSkylineResult> BichromaticBlockRS(
    const StoredDataset& candidates, const StoredDataset& competitors,
    const SimilaritySpace& space, const Object& query,
    const RSOptions& opts) {
  SimulatedDisk* disk = candidates.disk();
  NMRS_CHECK(competitors.disk() == disk)
      << "candidates and competitors must live on the same disk";
  const Schema& schema = candidates.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "bichromatic block RS needs at least 2 pages of memory");
  }

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  PagedReader reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
  // The kernels need a table-backed context (cached matrix columns to
  // gather from); the table changes no Prunes outcome or count, but it is
  // only built when asked for, keeping the default path seed-identical.
  // Overlays also require the table: that is the only path through which
  // the delta reaches the pruning checks.
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  std::optional<QueryDistanceTable> qtable;
  if (opts.use_kernels || opts.overlay != nullptr) {
    qtable.emplace(space, schema, query, selected, opts.overlay);
  }
  PruneContext ctx(space, schema, query, selected,
                   qtable ? &*qtable : nullptr);
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  const uint64_t batch_pages = opts.memory.pages - 1;  // 1 page streams P
  const uint64_t c_pages = candidates.num_pages();
  std::vector<uint8_t> pruned;
  for (PageId start = 0; start < c_pages; start += batch_pages) {
    ++stats.phase1_batches;
    const PageId end = std::min<PageId>(start + batch_pages, c_pages);
    RowBatch batch(m, numerics);
    for (PageId p = start; p < end; ++p) {
      NMRS_RETURN_IF_ERROR(candidates.ReadPageVia(&reader, p, &batch));
    }
    // Competitors are a different set with their own ids: no row is
    // spared, even one whose id equals the candidate's.
    NMRS_RETURN_IF_ERROR(RefineAgainstPages(competitors, &reader, batch,
                                            /*skip_own_id=*/false, opts, ctx,
                                            &pruned, &stats));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!pruned[i]) result.rows.push_back(batch.id(i));
    }
  }

  std::sort(result.rows.begin(), result.rows.end());
  stats.phase1_checks = stats.checks;
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

StatusOr<ReverseSkylineResult> BichromaticTreeRS(
    const StoredDataset& candidates, const StoredDataset& competitors,
    const SimilaritySpace& space, const Object& query,
    const RSOptions& opts) {
  if (opts.overlay != nullptr && !opts.overlay->empty()) {
    // The tree traversal reads matrix rows directly, so the overlay is
    // evaluated by materializing the patched space once per query.
    if (&opts.overlay->base() != &space) {
      return Status::InvalidArgument(
          "RSOptions::overlay was built over a different base space");
    }
    SimilaritySpace patched = opts.overlay->BuildPatchedSpace();
    RSOptions materialized = opts;
    materialized.overlay = nullptr;
    return BichromaticTreeRS(candidates, competitors, patched, query,
                             materialized);
  }
  SimulatedDisk* disk = candidates.disk();
  NMRS_CHECK(competitors.disk() == disk)
      << "candidates and competitors must live on the same disk";
  const Schema& schema = candidates.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "bichromatic tree RS needs at least 2 pages of memory");
  }

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  TreeQueryContext ctx =
      internal_tree::MakeTreeContext(space, schema, query, opts);
  PagedReader reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  ALTree tree(schema, ctx.attr_order);
  RowBatch page_rows(m, numerics);
  PageId next_page = 0;
  std::vector<TraversalEntry> stack;
  stack.reserve(256);
  std::vector<FastEntry> fast_stack;
  fast_stack.reserve(256);
  std::vector<Phase2Level> p2_levels(m);
  const uint64_t budget = (opts.memory.pages - 1) * disk->page_size();
  while (next_page < candidates.num_pages()) {
    ++stats.phase1_batches;
    tree.Clear();
    NMRS_RETURN_IF_ERROR(internal_tree::LoadTreeBatch(
        candidates, &reader, budget, &next_page, &tree, &page_rows));

    RowBatch p_page(m, numerics);
    for (PageId pp = 0; pp < competitors.num_pages(); ++pp) {
      p_page.Clear();
      NMRS_RETURN_IF_ERROR(competitors.ReadPageVia(&reader, pp, &p_page));
      for (size_t j = 0; j < p_page.size(); ++j) {
        // Competitors are a different set: no id to spare.
        if (ctx.fast_path) {
          const ValueId* e = p_page.row_values(j);
          for (size_t l = 0; l < m; ++l) {
            const AttrId a = ctx.attr_order[l];
            p2_levels[l].erow = space.matrix(a).RowFrom(e[a]);
            p2_levels[l].qrow = ctx.q_row_by_level[l];
          }
          internal_tree::PruneTreeFast(tree, p2_levels, kInvalidRowId,
                                       &stats, fast_stack);
        } else {
          internal_tree::PruneTree(tree, ctx, p_page.row_values(j),
                                   p_page.row_numerics(j), kInvalidRowId,
                                   &stats, stack);
        }
      }
    }
    tree.ForEachActiveLeaf([&](ALTree::NodeId l) {
      for (RowId r : tree.LeafRows(l)) result.rows.push_back(r);
    });
  }

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
