#include "core/dominance_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "core/query.h"
#include "core/query_distance_table.h"
#include "sim/similarity_space.h"

// The AVX2 lane evaluators are compiled whenever the toolchain supports
// per-function ISA targeting and NMRS_NO_SIMD was not requested; whether
// they *run* is a runtime cpuid decision (ActiveKernelDispatch), mirroring
// the crc32c.cc hardware path.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(NMRS_NO_SIMD)
#define NMRS_KERNEL_AVX2 1
#include <immintrin.h>
#endif

namespace nmrs {

namespace {

/// Lane evaluators: fill `viol` / `strict` bitmasks for rows [0, n),
/// n <= DominanceKernel::kBlockRows — bit w reports lhs_w > q / lhs_w < q.
/// The *_fill evaluators materialize the lhs array itself (for the
/// SharedCandidateCache), and `cmp` compares a materialized lhs array —
/// the same doubles and the same IEEE compares, so fused and cached
/// evaluation produce identical masks.
struct LaneFns {
  // Categorical: lhs_w = col[vals[w]] (col is the matrix column d(., x)).
  // `active` marks the rows still undecided: lanes of dead 4-row groups
  // may be skipped entirely (their viol/strict bits are never read — the
  // caller masks them out), which saves most gathers on late attributes.
  void (*cat)(const double* col, const ValueId* vals, size_t n,
              uint32_t active, double q, uint32_t* viol, uint32_t* strict);
  // Numeric: lhs_w = scale * |y[w] - x|.
  void (*num)(const double* y, size_t n, uint32_t active, double x,
              double scale, double q, uint32_t* viol, uint32_t* strict);
  // Compare-only pass over a materialized lhs array.
  void (*cmp)(const double* lhs, size_t n, uint32_t active, double q,
              uint32_t* viol, uint32_t* strict);
  // lhs materialization (all n rows — the array is shared by queries
  // whose active masks differ).
  void (*cat_fill)(const double* col, const ValueId* vals, size_t n,
                   double* lhs);
  void (*num_fill)(const double* y, size_t n, double x, double scale,
                   double* lhs);
};

void CatLanesScalar(const double* col, const ValueId* vals, size_t n,
                    uint32_t active, double q, uint32_t* viol,
                    uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = col[vals[w]];
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

void NumLanesScalar(const double* y, size_t n, uint32_t active, double x,
                    double scale, double q, uint32_t* viol,
                    uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = scale * std::fabs(y[w] - x);
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

void CmpLanesScalar(const double* lhs, size_t n, uint32_t active, double q,
                    uint32_t* viol, uint32_t* strict) {
  uint32_t v = 0, s = 0;
  for (size_t w = 0; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double l = lhs[w];
    if (l > q) v |= 1u << w;
    if (l < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

void CatFillScalar(const double* col, const ValueId* vals, size_t n,
                   double* lhs) {
  for (size_t w = 0; w < n; ++w) lhs[w] = col[vals[w]];
}

void NumFillScalar(const double* y, size_t n, double x, double scale,
                   double* lhs) {
  for (size_t w = 0; w < n; ++w) lhs[w] = scale * std::fabs(y[w] - x);
}

constexpr LaneFns kScalarFns = {CatLanesScalar, NumLanesScalar,
                                CmpLanesScalar, CatFillScalar,
                                NumFillScalar};

#ifdef NMRS_KERNEL_AVX2

__attribute__((target("avx2"))) void CatLanesAvx2(const double* col,
                                                  const ValueId* vals,
                                                  size_t n, uint32_t active,
                                                  double q, uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d qv = _mm256_set1_pd(q);
  // Full-mask gather with a zeroed source: identical to the plain
  // _mm256_i32gather_pd, but avoids GCC's maybe-uninitialized warning on
  // the unmasked intrinsic's implicit pass-through operand.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones =
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t w = 0;
  // Two independent gathers per iteration: vgatherdpd has a long latency,
  // so a single-gather loop serializes on it — the pair keeps the load
  // ports busy while the first gather is still in flight.
  for (; w + 8 <= n; w += 8) {
    if (!((active >> w) & 0xFFu)) continue;
    const __m128i idx0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    const __m128i idx1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w + 4));
    const __m256d lhs0 = _mm256_mask_i32gather_pd(zero, col, idx0, ones, 8);
    const __m256d lhs1 = _mm256_mask_i32gather_pd(zero, col, idx1, ones, 8);
    const uint32_t v0 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs0, qv, _CMP_GT_OQ)));
    const uint32_t v1 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs1, qv, _CMP_GT_OQ)));
    const uint32_t s0 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs0, qv, _CMP_LT_OQ)));
    const uint32_t s1 = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(lhs1, qv, _CMP_LT_OQ)));
    v |= (v0 | (v1 << 4)) << w;
    s |= (s0 | (s1 << 4)) << w;
  }
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    const __m256d lhs = _mm256_mask_i32gather_pd(zero, col, idx, ones, 8);
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = col[vals[w]];
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) void NumLanesAvx2(const double* y, size_t n,
                                                  uint32_t active, double x,
                                                  double scale, double q,
                                                  uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d qv = _mm256_set1_pd(q);
  // fabs via clearing the sign bit — identical to std::fabs on finite
  // doubles, so the product matches the scalar NumDist bit for bit.
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(y + w), xv);
    const __m256d lhs = _mm256_mul_pd(sc, _mm256_and_pd(diff, absmask));
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(lhs, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double lhs = scale * std::fabs(y[w] - x);
    if (lhs > q) v |= 1u << w;
    if (lhs < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) void CmpLanesAvx2(const double* lhs,
                                                  size_t n, uint32_t active,
                                                  double q, uint32_t* viol,
                                                  uint32_t* strict) {
  uint32_t v = 0, s = 0;
  const __m256d qv = _mm256_set1_pd(q);
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    if (!((active >> w) & 0xFu)) continue;
    const __m256d l = _mm256_loadu_pd(lhs + w);
    v |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(l, qv, _CMP_GT_OQ)))
         << w;
    s |= static_cast<uint32_t>(
             _mm256_movemask_pd(_mm256_cmp_pd(l, qv, _CMP_LT_OQ)))
         << w;
  }
  for (; w < n; ++w) {
    if (!((active >> w) & 1u)) continue;
    const double l = lhs[w];
    if (l > q) v |= 1u << w;
    if (l < q) s |= 1u << w;
  }
  *viol = v;
  *strict = s;
}

__attribute__((target("avx2"))) void CatFillAvx2(const double* col,
                                                 const ValueId* vals,
                                                 size_t n, double* lhs) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + w));
    _mm256_storeu_pd(lhs + w,
                     _mm256_mask_i32gather_pd(zero, col, idx, ones, 8));
  }
  for (; w < n; ++w) lhs[w] = col[vals[w]];
}

__attribute__((target("avx2"))) void NumFillAvx2(const double* y, size_t n,
                                                 double x, double scale,
                                                 double* lhs) {
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(y + w), xv);
    _mm256_storeu_pd(lhs + w, _mm256_mul_pd(sc, _mm256_and_pd(diff, absmask)));
  }
  for (; w < n; ++w) lhs[w] = scale * std::fabs(y[w] - x);
}

constexpr LaneFns kAvx2Fns = {CatLanesAvx2, NumLanesAvx2, CmpLanesAvx2,
                              CatFillAvx2, NumFillAvx2};

bool DetectAvx2() { return __builtin_cpu_supports("avx2"); }

#endif  // NMRS_KERNEL_AVX2

std::atomic<bool> g_force_scalar{false};

const LaneFns& FnsFor(KernelDispatch d) {
#ifdef NMRS_KERNEL_AVX2
  if (d == KernelDispatch::kAvx2) return kAvx2Fns;
#endif
  (void)d;
  return kScalarFns;
}

// Bits [lo, lo + cnt) of a block mask; cnt == 32 needs lo == 0.
inline uint32_t RangeMask(size_t lo, size_t cnt) {
  return cnt >= 32 ? ~0u : ((1u << cnt) - 1u) << lo;
}

// The scalar check total of the rows in `visited`: each row's count is the
// number of EvalMasks survivor masks holding its bit.
inline uint64_t MaskedChecks(const uint32_t* masks, size_t levels,
                             uint32_t visited) {
  uint64_t nch = 0;
  for (size_t l = 0; l < levels; ++l) {
    nch += static_cast<uint64_t>(__builtin_popcount(masks[l] & visited));
  }
  return nch;
}

}  // namespace

KernelDispatch ActiveKernelDispatch() {
#ifdef NMRS_KERNEL_AVX2
  static const bool kAvx2 = DetectAvx2();
  if (kAvx2 && !g_force_scalar.load(std::memory_order_relaxed)) {
    return KernelDispatch::kAvx2;
  }
#endif
  return KernelDispatch::kScalar;
}

const char* KernelDispatchName(KernelDispatch d) {
  return d == KernelDispatch::kAvx2 ? "avx2" : "scalar";
}

void ForceScalarKernelDispatchForTest(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void SharedCandidateCache::Attach(const PruneContext& ctx,
                                  const ColumnarBatch& cols) {
  NMRS_CHECK(ctx.table() != nullptr)
      << "SharedCandidateCache needs a table-backed PruneContext";
  cols_ = &cols;
  dispatch_ = ActiveKernelDispatch();
  const size_t m = ctx.num_selected();
  attrs_.assign(ctx.selected().begin(), ctx.selected().end());
  is_numeric_.assign(m, 0);
  num_scale_.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    if (ctx.SelectedIsNumeric(k)) {
      is_numeric_[k] = 1;
      num_scale_[k] = ctx.space().numeric(attrs_[k]).scale();
    }
  }
  xcol_.assign(m, nullptr);
  xnum_.assign(m, 0.0);
  num_blocks_ =
      (cols.size() + DominanceKernel::kBlockRows - 1) /
      DominanceKernel::kBlockRows;
  padded_rows_ = num_blocks_ * DominanceKernel::kBlockRows;
  lhs_.assign(m * padded_rows_, 0.0);
  ready_.assign(m * num_blocks_, 0);
  blocks_filled_ = 0;
}

void SharedCandidateCache::SetCandidate(const PruneContext& ctx) {
  const size_t m = attrs_.size();
  for (size_t k = 0; k < m; ++k) {
    if (is_numeric_[k]) {
      xnum_[k] = ctx.candidate_numerics()[attrs_[k]];
    } else {
      // The cached matrix column d(., x) — a pointer into the
      // SimilaritySpace, identical for every query's context.
      xcol_[k] = ctx.CandidateColumn(k);
    }
  }
  std::fill(ready_.begin(), ready_.end(), 0);
}

const double* SharedCandidateCache::EnsureLhs(size_t k, size_t block) {
  double* base = lhs_.data() + k * padded_rows_ +
                 block * DominanceKernel::kBlockRows;
  uint8_t& r = ready_[k * num_blocks_ + block];
  if (!r) {
    r = 1;
    ++blocks_filled_;
    const size_t begin = block * DominanceKernel::kBlockRows;
    const size_t n =
        std::min(DominanceKernel::kBlockRows, cols_->size() - begin);
    const LaneFns& fns = FnsFor(dispatch_);
    const AttrId a = attrs_[k];
    if (is_numeric_[k]) {
      fns.num_fill(cols_->numerics(a) + begin, n, xnum_[k], num_scale_[k],
                   base);
    } else {
      fns.cat_fill(xcol_[k], cols_->values(a) + begin, n, base);
    }
  }
  return base;
}

DominanceKernel::DominanceKernel(const PruneContext& ctx,
                                 const ColumnarBatch& cols,
                                 uint32_t promote_rows,
                                 SharedCandidateCache* shared)
    : ctx_(&ctx),
      cols_(&cols),
      shared_(shared),
      dispatch_(ActiveKernelDispatch()),
      promote_rows_(promote_rows) {
  NMRS_CHECK(ctx.table() != nullptr)
      << "DominanceKernel needs a table-backed PruneContext";
  for (AttrId a : ctx.selected()) {
    NMRS_CHECK(a < cols.num_attrs())
        << "ColumnarBatch narrower than the context's selection";
  }
  if (shared_ != nullptr) {
    NMRS_CHECK(shared_->attached() && shared_->batch() == &cols)
        << "SharedCandidateCache bound to a different batch";
    NMRS_CHECK(shared_->num_selected() == ctx.num_selected())
        << "sharing queries must agree on the attribute selection";
  }
  block_epoch_.assign((cols.size() + kBlockRows - 1) / kBlockRows, 0);
  prunes_.assign(cols.size(), 0);
  nchecks_.assign(cols.size(), 0);
  masks_.assign(2 * (ctx.num_selected() + 1), 0);
  promoted_ = promote_rows_ == 0;
}

void DominanceKernel::BeginCandidate() {
  ++epoch_;
  survived_ = 0;
  promoted_ = promote_rows_ == 0;
}

void DominanceKernel::AddTelemetryTo(QueryStats* stats) const {
  stats->kernel_checks += kernel_checks_;
  stats->kernel_promotions += promotions_;
  stats->kernel_scalar_rows += scalar_rows_;
  stats->kernel_block_rows += block_rows_;
}

bool DominanceKernel::ProbeRow(size_t j, uint32_t* nch) const {
  // Mirrors PruneContext::Prunes on the memoized (table-backed) path: the
  // same column loads, the same scale * |y - x| product, the same compare
  // order and early abort — so the probe's verdict and check count are the
  // scalar loop's, bit for bit.
  const size_t m = ctx_->num_selected();
  bool strict = false;
  for (size_t k = 0; k < m; ++k) {
    const AttrId a = ctx_->selected()[k];
    const double q = ctx_->QueryDist(k);
    double lhs;
    if (ctx_->SelectedIsNumeric(k)) {
      lhs = ctx_->space().numeric(a).scale() *
            std::fabs(cols_->numerics(a)[j] - ctx_->candidate_numerics()[a]);
    } else {
      lhs = ctx_->CandidateColumn(k)[cols_->values(a)[j]];
    }
    if (lhs > q) {
      *nch = static_cast<uint32_t>(k + 1);
      return false;
    }
    if (lhs < q) strict = true;
  }
  *nch = static_cast<uint32_t>(m);
  return strict;
}

size_t DominanceKernel::EvalMasks(size_t begin, size_t n,
                                  uint32_t init_active, uint32_t* masks,
                                  uint32_t* pruners) {
  const size_t m = ctx_->num_selected();
  const LaneFns& fns = FnsFor(dispatch_);
  const size_t block = begin / kBlockRows;
  const size_t block_off = begin - block * kBlockRows;
  uint32_t active = init_active;
  uint32_t strict_any = 0;
  size_t k = 0;
  for (; k < m && active != 0; ++k) {
    masks[k] = active;
    const AttrId a = ctx_->selected()[k];
    uint32_t viol = 0, strict = 0;
    if (shared_ != nullptr) {
      const double* lhs = shared_->EnsureLhs(k, block) + block_off;
      fns.cmp(lhs, n, active, ctx_->QueryDist(k), &viol, &strict);
    } else if (ctx_->SelectedIsNumeric(k)) {
      fns.num(cols_->numerics(a) + begin, n, active,
              ctx_->candidate_numerics()[a],
              ctx_->space().numeric(a).scale(), ctx_->QueryDist(k), &viol,
              &strict);
    } else {
      fns.cat(ctx_->CandidateColumn(k), cols_->values(a) + begin, n, active,
              ctx_->QueryDist(k), &viol, &strict);
    }
    kernel_checks_ += static_cast<uint64_t>(__builtin_popcount(active));
    strict_any |= strict;
    active &= ~viol;
  }
  // Survivors prune iff some attribute was strictly closer (the scalar
  // loop's `strict` flag — strict bits of violated rows are irrelevant).
  masks[k] = active;
  *pruners = active & strict_any;
  return k;
}

void DominanceKernel::EvalWindow(size_t row) {
  const size_t begin = row & ~(kBlockRows - 1);
  const size_t n = std::min(kBlockRows, cols_->size() - begin);
  block_epoch_[begin / kBlockRows] = epoch_;
  block_rows_ += n;
  uint16_t* nch = nchecks_.data() + begin;
  uint8_t* pr = prunes_.data() + begin;
  uint32_t pruners;
  const size_t levels =
      EvalMasks(begin, n, RangeMask(0, n), masks_.data(), &pruners);
  // Rows alive entering attribute k but not k+1 did their last
  // scalar-equivalent check at k; survivors (masks_[levels]) made all m.
  for (size_t k = 0; k < levels; ++k) {
    uint32_t last = masks_[k] & ~masks_[k + 1];
    while (last != 0) {
      const unsigned w = static_cast<unsigned>(__builtin_ctz(last));
      last &= last - 1;
      nch[w] = static_cast<uint16_t>(k + 1);
    }
  }
  uint32_t rest = masks_[levels];
  while (rest != 0) {
    const unsigned w = static_cast<unsigned>(__builtin_ctz(rest));
    rest &= rest - 1;
    nch[w] = static_cast<uint16_t>(ctx_->num_selected());
  }
  for (size_t w = 0; w < n; ++w) {
    pr[w] = static_cast<uint8_t>((pruners >> w) & 1u);
  }
}

uint64_t DominanceKernel::CountPruners(size_t begin, size_t end,
                                       uint64_t* checks) {
  uint64_t pruners = 0;
  uint64_t nch = 0;
  size_t j = begin;
  // Partial blocks at the edges go through the cached per-row path.
  while (j < end && j % kBlockRows != 0) {
    EnsureRow(j);
    pruners += prunes_[j];
    nch += nchecks_[j];
    ++j;
  }
  // Full blocks need no per-row artifacts at all: the sum of the scalar
  // loop's per-row check counts is the number of still-active rows at
  // each attribute (a row first violated at attribute k is active for
  // exactly its k+1 checks), and the pruner count is one popcount of the
  // final survivor & strict mask. Skipping the prunes_/nchecks_ writes
  // (and their later re-reads) is what makes bulk counting memory-lean on
  // batches that outgrow L1.
  for (; j + kBlockRows <= end; j += kBlockRows) {
    uint32_t pr;
    const size_t levels = EvalMasks(j, kBlockRows, ~0u, masks_.data(), &pr);
    nch += MaskedChecks(masks_.data(), levels, ~0u);
    pruners += static_cast<uint64_t>(__builtin_popcount(pr));
  }
  for (; j < end; ++j) {
    EnsureRow(j);
    pruners += prunes_[j];
    nch += nchecks_[j];
  }
  *checks += nch;
  return pruners;
}

bool DominanceKernel::RowPrunes(size_t j) {
  EnsureRow(j);
  return prunes_[j] != 0;
}

uint32_t DominanceKernel::RowChecks(size_t j) {
  EnsureRow(j);
  return nchecks_[j];
}

bool DominanceKernel::BulkWindow(size_t begin, size_t n,
                                 uint64_t* pair_tests, uint64_t* checks) {
  // Like CountPruners' full-block loop, the block computes lane masks
  // only — no prunes_/nchecks_ writes, no later re-reads. The scalar
  // accounting falls out of the per-attribute survivor masks alone: a row
  // first violated at attribute k was active for exactly its k+1 checks,
  // so each row's scalar check count is the number of masks its bit
  // survives into, and summing over rows is one popcount per attribute.
  // Restricting the popcounts to the lanes at or before the first pruner
  // reproduces the early-aborting loop's stop exactly.
  block_rows_ += static_cast<uint64_t>(n);
  uint32_t pruners;
  const size_t levels =
      EvalMasks(begin, n, RangeMask(0, n), masks_.data(), &pruners);
  const size_t visited =
      pruners != 0 ? static_cast<size_t>(__builtin_ctz(pruners)) + 1 : n;
  *pair_tests += visited;
  *checks += MaskedChecks(masks_.data(), levels, RangeMask(0, visited));
  return pruners != 0;
}

bool DominanceKernel::FindPrunerForward(size_t begin, size_t end,
                                        RowId skip_id, uint64_t* pair_tests,
                                        uint64_t* checks) {
  const RowId* ids = cols_->ids();
  size_t j = begin;
  // Pre-promotion: the exact scalar early-abort loop.
  for (; j < end && !promoted_; ++j) {
    if (ids[j] == skip_id) continue;
    ++*pair_tests;
    if (ProbeStep(j, checks)) return true;
  }
  // Post-promotion: block at a time. Blocks fully inside the range with
  // no prior evaluation and no skipped row take the bulk path; the rest
  // (range edges, a block a probe reused, the block holding skip_id) go
  // through the per-row artifacts so reuse stays coherent.
  while (j < end) {
    const size_t wb = j & ~(kBlockRows - 1);
    const size_t wn = std::min(kBlockRows, cols_->size() - wb);
    const size_t we = std::min(end, wb + wn);
    bool per_row = j != wb || we != wb + wn || BlockReady(wb / kBlockRows);
    for (size_t r = wb; !per_row && r < wb + wn; ++r) {
      per_row = ids[r] == skip_id;
    }
    if (per_row) {
      for (; j < we; ++j) {
        if (ids[j] == skip_id) continue;
        ++*pair_tests;
        EnsureRow(j);
        *checks += nchecks_[j];
        if (prunes_[j]) return true;
      }
      continue;
    }
    if (BulkWindow(wb, wn, pair_tests, checks)) return true;
    j = wb + wn;
  }
  return false;
}

DominanceKernel::ProbeResult DominanceKernel::ProbeForward(
    size_t begin, size_t end, RowId skip_id, uint64_t* pair_tests,
    uint64_t* checks) {
  if (promoted_) return ProbeResult::kPromoted;
  const RowId* ids = cols_->ids();
  for (size_t j = begin; j < end; ++j) {
    if (ids[j] == skip_id) continue;
    ++*pair_tests;
    if (ProbeStep(j, checks)) return ProbeResult::kPruner;
    if (promoted_) return ProbeResult::kPromoted;
  }
  return ProbeResult::kExhausted;
}

bool DominanceKernel::FindPrunerRing(size_t center, RowId skip_id,
                                     uint64_t* pair_tests,
                                     uint64_t* checks) {
  const size_t n = cols_->size();
  const RowId* ids = cols_->ids();
  // Pre-promotion: the exact scalar early-abort loop in ring order.
  size_t off = 1;
  for (; off < n && !promoted_; ++off) {
    if (off <= center && ids[center - off] != skip_id) {
      ++*pair_tests;
      if (ProbeStep(center - off, checks)) return true;
    }
    const size_t r = center + off;
    if (r < n && ids[r] != skip_id) {
      ++*pair_tests;
      if (!promoted_) {
        if (ProbeStep(r, checks)) return true;
      } else {
        // Promoted on this offset's left row: its right row is the one
        // row visited through the per-row artifacts.
        EnsureRow(r);
        *checks += nchecks_[r];
        if (prunes_[r]) return true;
      }
    }
  }
  return BulkRing(center, off, skip_id, pair_tests, checks);
}

bool DominanceKernel::BulkRing(size_t center, size_t off, RowId skip_id,
                               uint64_t* pair_tests, uint64_t* checks) {
  const size_t n = cols_->size();
  const size_t stride = ctx_->num_selected() + 1;
  const RowId* ids = cols_->ids();
  // Per side (0 = left, 1 = right): the aligned block evaluated, its
  // EvalMasks survivor masks and levels, and its pruner mask.
  size_t block[2] = {~size_t{0}, ~size_t{0}};
  uint32_t* masks[2] = {masks_.data(), masks_.data() + stride};
  size_t levels[2] = {0, 0};
  uint32_t pruners[2] = {0, 0};
  // Rows [lo, hi) of block b minus those carrying the skipped id.
  auto wanted = [&](size_t b, size_t lo, size_t hi) {
    uint32_t want = RangeMask(lo, hi - lo);
    for (size_t w = lo; w < hi; ++w) {
      if (ids[b * kBlockRows + w] == skip_id) want &= ~(1u << w);
    }
    return want;
  };
  auto eval = [&](int s, size_t b, uint32_t want) {
    const size_t begin = b * kBlockRows;
    block[s] = b;
    block_rows_ += static_cast<uint64_t>(__builtin_popcount(want));
    levels[s] = EvalMasks(begin, std::min(kBlockRows, n - begin), want,
                          masks[s], &pruners[s]);
  };
  // Adds the scalar accounting of side s's rows in `visited`.
  auto account = [&](int s, uint32_t visited) {
    *pair_tests +=
        static_cast<uint64_t>(__builtin_popcount(visited & masks[s][0]));
    *checks += MaskedChecks(masks[s], levels[s], visited);
  };
  while (off <= center || center + off < n) {
    // This offset's bit in each side's block; the left side walks down to
    // bit 0, the right side up to its block's end, and a span of offsets
    // stays inside both blocks.
    const bool has_l = off <= center, has_r = center + off < n;
    const size_t lb = has_l ? (center - off) / kBlockRows : 0;
    const size_t rb = has_r ? (center + off) / kBlockRows : 0;
    const size_t pl = has_l ? center - off - lb * kBlockRows : 0;
    const size_t pr = has_r ? center + off - rb * kBlockRows : 0;
    const size_t rend = has_r ? std::min(kBlockRows, n - rb * kBlockRows) : 0;
    const size_t span = std::min(has_l ? pl + 1 : kBlockRows,
                                 has_r ? rend - pr : kBlockRows);
    const bool new_l = has_l && lb != block[0];
    const bool new_r = has_r && rb != block[1];
    if (new_l && new_r && lb == rb) {
      // Both sides start in the candidate's own block: one evaluation of
      // the rows left and right of the probed stretch, copied to both.
      eval(0, lb, wanted(lb, 0, pl + 1) | wanted(rb, pr, rend));
      block[1] = rb;
      levels[1] = levels[0];
      pruners[1] = pruners[0];
      std::copy(masks[0], masks[0] + levels[0] + 1, masks[1]);
    } else {
      if (new_l) eval(0, lb, wanted(lb, 0, pl + 1));
      if (new_r) eval(1, rb, wanted(rb, pr, rend));
    }
    const uint32_t lspan = has_l ? RangeMask(pl + 1 - span, span) : 0;
    const uint32_t rspan = has_r ? RangeMask(pr, span) : 0;
    const uint32_t lp = pruners[0] & lspan;
    const uint32_t rp = pruners[1] & rspan;
    if ((lp | rp) == 0) {
      account(0, lspan);
      account(1, rspan);
      off += span;
      continue;
    }
    // Offsets (from `off`) of each side's nearest pruner; the ring visits
    // an offset's left row first, so the left side wins a tie.
    constexpr size_t kNone = ~size_t{0};
    const size_t tl =
        lp != 0 ? pl - (31 - static_cast<size_t>(__builtin_clz(lp))) : kNone;
    const size_t tr =
        rp != 0 ? static_cast<size_t>(__builtin_ctz(rp)) - pr : kNone;
    const size_t t = std::min(tl, tr);
    account(0, has_l ? RangeMask(pl - t, t + 1) : 0);
    account(1, has_r ? RangeMask(pr, tl <= tr ? t : t + 1) : 0);
    return true;
  }
  return false;
}

}  // namespace nmrs
