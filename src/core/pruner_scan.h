#ifndef NMRS_CORE_PRUNER_SCAN_H_
#define NMRS_CORE_PRUNER_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query.h"
#include "data/object.h"
#include "data/stored_dataset.h"
#include "storage/paged_reader.h"

namespace nmrs {

/// The one question every algorithm asks of its rows (Definition 1): does
/// some row Y prune candidate X, scanning the rows in a fixed order and
/// stopping at the first pruner? These two functions are the only place it
/// is asked of a row batch; the in-memory oracles keep their own loops.

/// Pruner search order within a row batch.
enum class SearchOrder {
  kForward,  // rows 0..n in order
  kRing,     // offsets +-1, +-2, ... from the candidate's position, the
             // left row first at each offset (the SRS phase-1 order)
};

/// True iff a row of `rows` whose id differs from `skip_id` prunes ctx's
/// current candidate, visiting rows in `order` and stopping at the first
/// pruner. `center` is the candidate's own position in `rows`, the ring's
/// center; forward scans ignore it. Adds the pair tests and attribute
/// checks of the rows visited. With a `kernel` over the columnar view of
/// `rows` (bound to `ctx`) the scan runs the kernel's adaptive adapter —
/// identical verdict and accounting (DominanceKernel's equivalence
/// contract); without one it runs the scalar PruneContext::Prunes loop.
/// kInvalidRowId as `skip_id` skips no row.
bool FindPruner(const RowBatch& rows, const PruneContext& ctx,
                DominanceKernel* kernel, SearchOrder order, size_t center,
                RowId skip_id, uint64_t* pair_tests, uint64_t* checks);

/// The page-streaming refinement of BRS/SRS phase 2 (paper Alg. 2 lines
/// 9-19): reads every page of `data` through `reader` and runs each
/// still-unpruned candidate through a forward FindPruner over it, setting
/// (*pruned)[i] = 1 on the first pruner. *pruned is resized and zeroed
/// first, and every page is read even once all candidates are pruned.
/// With opts.use_kernels each page gets one columnar view and one kernel
/// (opts.kernel_promote_rows) shared by its candidates. `skip_own_id`
/// exempts the row carrying a candidate's own id (monochromatic: candidate
/// and rows share one id space); bichromatic callers pass false, since
/// candidate and competitor ids are separate spaces and a competitor with
/// a candidate's id still prunes it. Counters land in *stats; IO is the
/// caller's delta.
Status RefineAgainstPages(const StoredDataset& data, PagedReader* reader,
                          const RowBatch& candidates, bool skip_own_id,
                          const RSOptions& opts, PruneContext& ctx,
                          std::vector<uint8_t>* pruned, QueryStats* stats);

}  // namespace nmrs

#endif  // NMRS_CORE_PRUNER_SCAN_H_
