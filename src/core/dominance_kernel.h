#ifndef NMRS_CORE_DOMINANCE_KERNEL_H_
#define NMRS_CORE_DOMINANCE_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/dominance.h"
#include "data/columnar_batch.h"

namespace nmrs {

struct QueryStats;

/// Which lane-evaluator implementation the kernels run on. Selected once
/// per process by runtime CPU detection (like the crc32c hardware path):
/// kAvx2 uses vgatherdpd-style gathers + vectorized compares, kScalar is
/// the portable blocked fallback with identical semantics. Compiling with
/// -DNMRS_NO_SIMD (CMake option NMRS_NO_SIMD, exercised by ci.sh) removes
/// the SIMD path entirely, so the fallback stays continuously tested.
enum class KernelDispatch { kScalar, kAvx2 };

/// The dispatch the next-constructed kernel will use.
KernelDispatch ActiveKernelDispatch();
const char* KernelDispatchName(KernelDispatch d);

/// Test hook: force the portable scalar lane evaluators even when AVX2 is
/// available, so both paths can be compared in one process. Affects kernels
/// constructed after the call; not for production use.
void ForceScalarKernelDispatchForTest(bool force);

/// Shared per-candidate cache of the *left-hand sides* of the pruning
/// condition: for a fixed candidate X, the values d_k(y, x_k) gathered per
/// attribute are a pure function of (space, X, batch) — the query only
/// supplies the thresholds d_k(q, x_k). A batch of queries scanning the
/// same rows against the same candidate can therefore gather each
/// attribute block once and reduce every query's evaluation to a
/// compare-only pass, which is what the cross-query shared scan
/// (docs/KERNELS.md) does: attach one cache to the batch, SetCandidate
/// once per candidate, and hand the cache to every query's
/// DominanceKernel.
///
/// Blocks of 32 rows x one selected attribute are filled lazily on first
/// demand by any sharing kernel. The cached doubles are loaded/computed by
/// the same operations as the fused lane evaluators, so verdicts stay
/// bit-identical. Not thread-safe: one cache serves the kernels of one
/// shared scan, which evaluate a candidate's queries sequentially.
class SharedCandidateCache {
 public:
  /// Binds the cache to a batch; `ctx` supplies the attribute selection
  /// geometry, which every sharing query must agree on (same resolved
  /// selection — guaranteed when they share RSOptions::selected_attrs).
  /// Both are borrowed and must outlive the cache.
  void Attach(const PruneContext& ctx, const ColumnarBatch& cols);

  /// Fixes candidate X and invalidates every cached block. Any sharing
  /// query's context works: the candidate columns and numeric values it
  /// caches are query-independent.
  void SetCandidate(const PruneContext& ctx);

  /// The lhs array for selected attribute k over rows
  /// [block*32, min(block*32+32, n)), filling it on first touch.
  const double* EnsureLhs(size_t k, size_t block);

  bool attached() const { return cols_ != nullptr; }
  const ColumnarBatch* batch() const { return cols_; }
  size_t num_selected() const { return attrs_.size(); }

  /// Attribute-blocks gathered since Attach (each serves every sharing
  /// query; the saving vs per-query kernels is (Q-1)/Q of the gathers).
  uint64_t blocks_filled() const { return blocks_filled_; }

 private:
  const ColumnarBatch* cols_ = nullptr;
  KernelDispatch dispatch_ = KernelDispatch::kScalar;
  std::vector<AttrId> attrs_;       // selected physical attribute ids
  std::vector<uint8_t> is_numeric_; // aligned with attrs_
  std::vector<double> num_scale_;   // numeric k: dissimilarity scale
  std::vector<const double*> xcol_; // categorical k: column d(., x)
  std::vector<double> xnum_;        // numeric k: candidate value
  size_t padded_rows_ = 0;
  size_t num_blocks_ = 0;
  std::vector<double> lhs_;         // [k * padded_rows_ + row]
  std::vector<uint8_t> ready_;      // [k * num_blocks_ + block]
  uint64_t blocks_filled_ = 0;
};

/// Block-at-a-time evaluator of the pruning condition of Definition 1: for
/// a fixed candidate X (set via the PruneContext), decide for a block of
/// rows Y at once whether forall k: d_k(y_k, x_k) <= d_k(q_k, x_k), with
/// strict inequality somewhere.
///
/// Because X is fixed, each categorical attribute's left-hand side is a
/// read from one contiguous DissimilarityMatrix column d_k(., x_k)
/// (PruneContext::CandidateColumn), indexed by the attribute's contiguous
/// value-id column of the ColumnarBatch — a gather -> compare -> movemask
/// shape. Per attribute the kernel ANDs survivor masks across the block and
/// early-exits the attribute loop as soon as no row in the block can still
/// be a pruner.
///
/// ## Adaptive dispatch (promote_rows)
///
/// Bulk evaluation only wins when the candidate's pruner scan is long; a
/// candidate pruned by one of its first few neighbours is cheapest on the
/// plain scalar loop. The Find* adapters therefore start every candidate
/// on an exact replica of the scalar early-aborting loop and promote it to
/// block evaluation only after it survives `promote_rows` tests (0 =
/// promote immediately, the always-block behavior). Per-row evaluation is
/// block-granular: a row touched by RowPrunes computes its aligned 32-row
/// window once; the promoted forward and ring scans instead evaluate whole
/// blocks masks-only (BulkWindow, BulkRing).
/// The promotion decision depends only on verdicts, which are
/// dispatch-invariant — so promotions, scalar/block row splits and
/// kernel_checks all agree between the AVX2 and portable paths.
///
/// ## Equivalence contract (docs/KERNELS.md)
///
/// Verdicts are bit-identical to the scalar PruneContext::Prunes loop: the
/// lane evaluators (and the pre-promotion probe) load the very same
/// doubles (matrix columns / numeric scaled |y-x|) and compare them
/// against the same cached thresholds d_k(q_k, x_k), in the same IEEE
/// operations. The Find* adapters also reproduce the scalar loops'
/// accounting *exactly*, in both regimes: per visited row they add the
/// number of attribute checks the early-aborting scalar loop would have
/// made (first violated attribute + 1, or num_selected() if none) —
/// probed rows natively, block rows reconstructed from the per-attribute
/// violation masks — and they stop at the first pruner in the same search
/// order. The block path's own work is reported separately as
/// kernel_checks(): per attribute processed it adds the number of rows
/// still alive in the block — a dispatch-independent count equal to the
/// sum of the block-evaluated rows' scalar check counts plus the lanes
/// past an adapter's first pruner that the block computed anyway.
///
/// The context must be table-backed (QueryDistanceTable) — all wired
/// algorithms build one — and both `ctx` and `cols` are borrowed and must
/// outlive the kernel. Not thread-safe; parallel chunks build one kernel
/// per chunk over the shared ColumnarBatch. With a SharedCandidateCache
/// the block path compares against the cache's lhs arrays instead of
/// gathering privately (cross-query scan sharing); the cache must be
/// attached to the same batch and its SetCandidate must track ctx's.
class DominanceKernel {
 public:
  /// Rows evaluated per block (one bitmask word): the one window width of
  /// every block path.
  static constexpr size_t kBlockRows = 32;

  DominanceKernel(const PruneContext& ctx, const ColumnarBatch& cols,
                  uint32_t promote_rows = 0,
                  SharedCandidateCache* shared = nullptr);

  /// Invalidates cached block results and restarts the adaptive probe;
  /// call after ctx.SetCandidate().
  void BeginCandidate();

  /// Forward scan of rows [begin, end): returns true iff a row with
  /// id != skip_id prunes the current candidate, stopping there. Adds the
  /// scalar-equivalent pair/check counts (rows with id == skip_id are
  /// skipped without counting, like the scalar loops). Once the candidate
  /// is promoted, whole untouched blocks are evaluated in bulk — masks
  /// only, no per-row artifacts — with the scalar accounting reconstructed
  /// from the per-attribute survivor masks (see BulkWindow).
  bool FindPrunerForward(size_t begin, size_t end, RowId skip_id,
                         uint64_t* pair_tests, uint64_t* checks);

  /// Outcome of a probe-only scan (ProbeForward).
  enum class ProbeResult {
    kPruner,     // a pruner was found; the scan stopped there
    kExhausted,  // all rows probed, none prunes the candidate
    kPromoted,   // the candidate survived promote_rows tests; the caller
                 // should switch to its bulk strategy for the remainder
  };

  /// The pre-promotion half of FindPrunerForward on its own: probes rows
  /// [begin, end) with the exact scalar loop and returns kPromoted as soon
  /// as the candidate graduates (immediately when promote_rows == 0),
  /// instead of falling through to block evaluation. Callers with a
  /// better-than-flat strategy for stubborn candidates — TRS escapes to
  /// the pruned ALTree traversal — use this to keep the cheap early-abort
  /// probe without committing to a flat block scan. Accounting matches
  /// the scalar loop for every row actually probed.
  ProbeResult ProbeForward(size_t begin, size_t end, RowId skip_id,
                           uint64_t* pair_tests, uint64_t* checks);

  /// Expanding-ring scan around `center` (offsets +-1, +-2, ..., left row
  /// before right row at each offset — the SRS phase-1 order): same
  /// contract as FindPrunerForward. Once the candidate is promoted, both
  /// sides advance through their aligned 32-row blocks masks-only (see
  /// BulkRing).
  bool FindPrunerRing(size_t center, RowId skip_id, uint64_t* pair_tests,
                      uint64_t* checks);

  /// Bulk evaluation of rows [begin, end) with no early exit: computes
  /// every block, adds the scalar-equivalent check count of every row to
  /// *checks, and returns how many rows prune the candidate. Entry point
  /// for the throughput benchmarks (bench_kernels), where the per-row
  /// adapter call overhead would drown the lane work being measured.
  /// Always block-evaluates (the adaptive policy governs the Find*
  /// adapters only).
  uint64_t CountPruners(size_t begin, size_t end, uint64_t* checks);

  /// Per-row outcome of the current candidate, computing the row's window
  /// on first touch. Exposed for tests.
  bool RowPrunes(size_t j);
  /// Scalar-equivalent attribute-check count for row j (first violated
  /// attribute + 1, or num_selected() when none is violated).
  uint32_t RowChecks(size_t j);

  /// Alive-row attribute lanes evaluated by the block path since
  /// construction (see class comment). Dispatch-independent.
  uint64_t kernel_checks() const { return kernel_checks_; }

  /// Adaptive-policy telemetry since construction, dispatch-independent:
  /// candidates promoted to block evaluation, rows evaluated by the
  /// scalar probe, and rows evaluated by block windows.
  uint64_t promotions() const { return promotions_; }
  uint64_t scalar_rows() const { return scalar_rows_; }
  uint64_t block_rows() const { return block_rows_; }

  /// Adds kernel_checks() and the adaptive-policy telemetry to the
  /// matching QueryStats counters.
  void AddTelemetryTo(QueryStats* stats) const;

  /// Dispatch this kernel instance is bound to.
  KernelDispatch dispatch() const { return dispatch_; }

 private:
  // Evaluates the aligned 32-row block containing `row`, filling
  // prunes_/nchecks_ for all its rows, and marks the block ready.
  void EvalWindow(size_t row);
  // The one lane-evaluation loop of every block path: rows
  // [begin, begin+n) of one aligned 32-row block, restricted to
  // `init_active`. Returns the number L of attributes processed (the loop
  // stops once no row is alive); masks[k] gets the rows alive entering
  // attribute k and masks[L] the survivors, so a row's scalar check count
  // is the number of masks[0..L) holding its bit. *pruners gets the
  // survivors strictly closer somewhere. Adds the lanes to kernel_checks_.
  size_t EvalMasks(size_t begin, size_t n, uint32_t init_active,
                   uint32_t* masks, uint32_t* pruners);
  // A block's per-row artifacts are valid iff it was evaluated for the
  // current candidate. Epochs make BeginCandidate O(1) — with one kernel
  // check per candidate over thousands of candidates per batch, clearing a
  // per-block array each time would cost O(rows^2) per batch.
  inline bool BlockReady(size_t b) const {
    return block_epoch_[b] == epoch_;
  }
  inline void EnsureRow(size_t j) {
    if (!BlockReady(j / kBlockRows)) EvalWindow(j);
  }
  // Exact scalar probe of row j: same loads, compares and early-abort as
  // PruneContext::Prunes on the current candidate.
  bool ProbeRow(size_t j, uint32_t* nch) const;
  // One pre-promotion row of the Find*/Probe* adapters: returns row j's
  // verdict and adds its scalar check count (reusing the row's artifacts
  // when its block is already evaluated); a surviving row counts toward
  // promotion.
  inline bool ProbeStep(size_t j, uint64_t* checks) {
    bool p;
    if (BlockReady(j / kBlockRows)) {
      // Already block-evaluated (an external RowPrunes touch): reuse.
      *checks += nchecks_[j];
      p = prunes_[j] != 0;
    } else {
      uint32_t nch;
      p = ProbeRow(j, &nch);
      ++scalar_rows_;
      *checks += nch;
    }
    if (!p && ++survived_ >= promote_rows_) {
      promoted_ = true;
      ++promotions_;
    }
    return p;
  }
  // Bulk evaluation of the whole block [begin, begin+n) with no per-row
  // artifacts, used by the promoted forward scan. Adds the exact scalar
  // accounting (stopping at the first pruner like the early-aborting
  // loop) and returns whether the block contains one. The block must not
  // contain the skipped row or be already evaluated.
  bool BulkWindow(size_t begin, size_t n, uint64_t* pair_tests,
                  uint64_t* checks);
  // The promoted ring scan from offset `off` on: each side evaluates its
  // current aligned 32-row block once (masks only, skip_id rows masked
  // out), then both sides advance through equal offset spans inside their
  // blocks. A span's scalar accounting is popcounts over the masks up to
  // the ring-first pruner: the nearest offset, the left row winning ties.
  bool BulkRing(size_t center, size_t off, RowId skip_id,
                uint64_t* pair_tests, uint64_t* checks);

  const PruneContext* ctx_;
  const ColumnarBatch* cols_;
  SharedCandidateCache* shared_;
  KernelDispatch dispatch_;
  uint32_t promote_rows_;
  uint64_t epoch_ = 1;                  // current candidate's epoch
  std::vector<uint64_t> block_epoch_;   // per 32-row block: last evaluation
  std::vector<uint8_t> prunes_;         // per row, current candidate
  std::vector<uint16_t> nchecks_;       // per row, scalar-equivalent checks
  // EvalMasks output, m + 1 words per side of a ring scan; the other
  // block paths use the first.
  std::vector<uint32_t> masks_;
  // Adaptive per-candidate state.
  uint32_t survived_ = 0;
  bool promoted_ = true;
  uint64_t kernel_checks_ = 0;
  uint64_t promotions_ = 0;
  uint64_t scalar_rows_ = 0;
  uint64_t block_rows_ = 0;
};

}  // namespace nmrs

#endif  // NMRS_CORE_DOMINANCE_KERNEL_H_
