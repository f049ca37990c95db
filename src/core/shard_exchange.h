#ifndef NMRS_CORE_SHARD_EXCHANGE_H_
#define NMRS_CORE_SHARD_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "sim/similarity_space.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// The per-shard halves of the cross-shard pruner exchange
/// (docs/SHARDING.md): after a shard's local reverse-skyline run, its
/// surviving candidates must be serialized for export (CollectRowsById) and
/// every other shard's surviving candidates must be re-verified against
/// this shard's rows (PruneCandidatesAgainstShard) — the reverse-skyline
/// pruning relation is not transitive, so a shard's *pruned* rows still
/// prune foreign candidates and the verify pass must stream all local rows,
/// exactly like BRS phase 2 streams all of D.

/// Collects the stored rows whose ids appear in `ids` (ascending RowIds, as
/// every algorithm emits them) by one forward page scan of `data` through
/// `reader`, appending them to *out in stored order and stopping as soon as
/// all are found. IO lands on the reader's disk; the caller deltas its
/// stats. Returns InvalidArgument if some id does not exist in `data`.
Status CollectRowsById(const StoredDataset& data, PagedReader* reader,
                       const std::vector<RowId>& ids, RowBatch* out);

/// Streams every page of `data` past the in-memory `candidates` batch and
/// sets (*pruned)[i] = 1 for every candidate some row of `data` prunes
/// w.r.t. `query` — the BRS phase-2 refinement (RefineAgainstPages in
/// core/pruner_scan.h, shared with BRS/SRS phase 2 and the bichromatic
/// block variant) applied to a batch that arrived over the exchange
/// instead of from a scratch file. Honors opts.selected_attrs and
/// opts.use_kernels / kernel_promote_rows; verdicts and check accounting
/// are identical between the scalar and kernel paths.
/// pair/check/kernel counters land in *stats (IO is the caller's delta).
/// *pruned is resized and zeroed first; rows whose id equals a candidate's
/// id never prune it (identity, as everywhere).
Status PruneCandidatesAgainstShard(const StoredDataset& data,
                                   const SimilaritySpace& space,
                                   const Object& query,
                                   const RowBatch& candidates,
                                   const RSOptions& opts, PagedReader* reader,
                                   std::vector<uint8_t>* pruned,
                                   QueryStats* stats);

}  // namespace nmrs

#endif  // NMRS_CORE_SHARD_EXCHANGE_H_
