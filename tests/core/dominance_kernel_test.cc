// Unit tests of the block dominance kernels (core/dominance_kernel.h):
// bit-exact verdict and accounting equivalence against the scalar
// PruneContext::Prunes loop on both dispatch paths, the columnar
// transpose, and — with asymmetric matrices — the gather orientation
// (which operand indexes the matrix row vs column).
#include "core/dominance_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "data/generators.h"
#include "testing/test_util.h"

namespace nmrs {
namespace {

using testing::RunningExample;

RowBatch BatchFromDataset(const Dataset& data) {
  RowBatch batch(data.schema().num_attributes(),
                 data.schema().NumNumeric() > 0);
  for (RowId r = 0; r < data.num_rows(); ++r) {
    batch.Append(r, data.RowValues(r), data.RowNumerics(r));
  }
  return batch;
}

TEST(ColumnarBatchTest, TransposeMatchesRowMajor) {
  Rng rng(99);
  Dataset data = GenerateMixed(137, {5, 9, 3}, 2, 4, rng);
  RowBatch rows = BatchFromDataset(data);
  ColumnarBatch cols;
  cols.Build(rows);
  ASSERT_EQ(cols.size(), rows.size());
  ASSERT_EQ(cols.num_attrs(), rows.num_attrs());
  ASSERT_TRUE(cols.has_numerics());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cols.id(i), rows.id(i));
    for (AttrId a = 0; a < rows.num_attrs(); ++a) {
      EXPECT_EQ(cols.values(a)[i], rows.value(i, a)) << i << "/" << a;
      EXPECT_EQ(cols.numerics(a)[i], rows.numeric(i, a)) << i << "/" << a;
    }
  }
  // Rebuild from a smaller batch must fully replace the old view.
  RowBatch two(rows.num_attrs(), true);
  two.Append(rows.id(0), rows.row_values(0), rows.row_numerics(0));
  cols.Build(two);
  EXPECT_EQ(cols.size(), 1u);
}

TEST(ColumnarBatchTest, BuildFromColumns) {
  const std::vector<std::vector<ValueId>> columns = {{1, 2, 3}, {4, 5, 6}};
  const std::vector<RowId> ids = {10, 11, 12};
  ColumnarBatch cols;
  cols.BuildFromColumns(3, columns, ids);
  EXPECT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols.num_attrs(), 2u);
  EXPECT_FALSE(cols.has_numerics());
  EXPECT_EQ(cols.values(0)[2], 3u);
  EXPECT_EQ(cols.values(1)[0], 4u);
  EXPECT_EQ(cols.id(1), 11u);
}

// Every row verdict and per-row check count of the kernel must equal the
// scalar early-aborting loop, on both dispatch paths.
void ExpectKernelMatchesScalar(const Dataset& data,
                               const SimilaritySpace& space,
                               const Object& query,
                               const std::vector<AttrId>& selection) {
  const Schema& schema = data.schema();
  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, selection);
  QueryDistanceTable table(space, schema, query, selected);
  PruneContext ctx(space, schema, query, selected, &table);
  RowBatch rows = BatchFromDataset(data);
  ColumnarBatch cols;
  cols.Build(rows);

  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    DominanceKernel kernel(ctx, cols);
    if (force_scalar) {
      ASSERT_EQ(kernel.dispatch(), KernelDispatch::kScalar);
    }
    for (RowId x = 0; x < data.num_rows(); x += 3) {
      ctx.SetCandidate(data.RowValues(x), data.RowNumerics(x));
      kernel.BeginCandidate();
      for (RowId y = 0; y < data.num_rows(); ++y) {
        uint64_t scalar_checks = 0;
        const bool scalar_prunes =
            ctx.Prunes(data.RowValues(y), data.RowNumerics(y),
                       &scalar_checks);
        EXPECT_EQ(kernel.RowPrunes(y), scalar_prunes)
            << "x=" << x << " y=" << y << " forced=" << force_scalar;
        EXPECT_EQ(kernel.RowChecks(y), scalar_checks)
            << "x=" << x << " y=" << y << " forced=" << force_scalar;
      }
    }
    EXPECT_GT(kernel.kernel_checks(), 0u);
  }
  ForceScalarKernelDispatchForTest(false);
}

TEST(DominanceKernelTest, MatchesScalarOnRunningExample) {
  RunningExample ex;
  ExpectKernelMatchesScalar(ex.dataset, ex.space, ex.query, {});
}

TEST(DominanceKernelTest, MatchesScalarOnRandomAsymmetricInstances) {
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<size_t> cards(1 + rng.Uniform(4));
    for (auto& c : cards) c = 2 + rng.Uniform(40);
    Rng drng = rng.Fork();
    Rng srng = rng.Fork();
    Dataset data = GenerateUniform(40 + rng.Uniform(120), cards, drng);
    SimilaritySpace space;
    for (size_t c : cards) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
    }
    Object q = SampleUniformQuery(data, rng);
    std::vector<AttrId> sel;
    if (rng.Bernoulli(0.4)) {
      for (AttrId a = 0; a < cards.size(); ++a) {
        if (rng.Bernoulli(0.6)) sel.push_back(a);
      }
    }
    ExpectKernelMatchesScalar(data, space, q, sel);
  }
}

TEST(DominanceKernelTest, MatchesScalarOnMixedNumericInstance) {
  Rng rng(31337);
  Rng drng = rng.Fork();
  Rng srng = rng.Fork();
  Dataset data = GenerateMixed(180, {6, 11}, 2, 4, drng);
  SimilaritySpace space;
  space.AddCategorical(MakeRandomMatrix(6, srng, {.symmetric = false}));
  space.AddCategorical(MakeRandomMatrix(11, srng, {.symmetric = false}));
  space.AddNumeric(NumericDissimilarity(0.7));
  space.AddNumeric(NumericDissimilarity(1.3));
  Object q = SampleUniformQuery(data, rng);
  ExpectKernelMatchesScalar(data, space, q, {});
  ExpectKernelMatchesScalar(data, space, q, {3, 0});
}

// Pins the gather orientation on an asymmetric 2-value matrix: the lane
// value for row Y against candidate X must be d(y, x) — matrix row y,
// column x — never the transposed d(x, y). The two orientations give
// opposite verdicts here, so a flipped gather cannot pass.
TEST(DominanceKernelTest, GatherOrientationOnAsymmetricMatrix) {
  DissimilarityMatrix mat(2);
  mat.Set(0, 1, 0.9);  // d(0 -> 1)
  mat.Set(1, 0, 0.1);  // d(1 -> 0)
  SimilaritySpace space;
  space.AddCategorical(std::move(mat));
  Schema schema = Schema::Categorical({2});

  // Query q=1, candidate x=0: threshold d(q, x) = d(1, 0) = 0.1.
  // Pruner y=1: lhs = d(y, x) = d(1, 0) = 0.1 -> not < 0.1, no strict
  // attribute, so y must NOT prune. The flipped lhs d(x, y) = 0.9 would
  // also not prune (violation), but for y=0: lhs = d(0, 0) = 0 < 0.1
  // prunes, while flipped d(0, 0) = 0 agrees — so pin the threshold side
  // too with query q=0, candidate x=1: threshold d(0, 1) = 0.9, y=0 has
  // lhs d(0, 1) = 0.9 (no strict), flipped d(1, 0) = 0.1 would prune.
  const std::vector<AttrId> selected = {0};
  RowBatch rows(1, false);
  const ValueId v0 = 0, v1 = 1;
  rows.Append(0, &v0, nullptr);
  rows.Append(1, &v1, nullptr);
  ColumnarBatch cols;
  cols.Build(rows);

  for (bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    {
      Object q({1});
      QueryDistanceTable table(space, schema, q, selected);
      PruneContext ctx(space, schema, q, selected, &table);
      ValueId x = 0;
      ctx.SetCandidate(&x, nullptr);
      ASSERT_EQ(ctx.QueryDist(0), 0.1);
      DominanceKernel kernel(ctx, cols);
      EXPECT_TRUE(kernel.RowPrunes(0));    // d(0,0)=0 < 0.1
      EXPECT_FALSE(kernel.RowPrunes(1));   // d(1,0)=0.1, nothing strict
    }
    {
      Object q({0});
      QueryDistanceTable table(space, schema, q, selected);
      PruneContext ctx(space, schema, q, selected, &table);
      ValueId x = 1;
      ctx.SetCandidate(&x, nullptr);
      ASSERT_EQ(ctx.QueryDist(0), 0.9);
      // y=0: lhs = d(0,1) = 0.9 == threshold, not strict -> no prune.
      // A transposed gather would read d(1,0) = 0.1 and prune.
      DominanceKernel kernel(ctx, cols);
      EXPECT_FALSE(kernel.RowPrunes(0));
      EXPECT_TRUE(kernel.RowPrunes(1) == (space.CatDist(0, 1, 1) < 0.9))
          << "self-distance row must follow the definition";
    }
  }
  ForceScalarKernelDispatchForTest(false);
}

// Verdict and scalar-equivalent accounting of one pruner search.
struct ScanOutcome {
  bool found = false;
  uint64_t pairs = 0;
  uint64_t checks = 0;
};

// The scalar SRS phase-1 ring loop around `center`: offsets 1, 2, ..., the
// left row before the right row at each, skipping every row whose id is
// skip_id and stopping at the first pruner.
ScanOutcome ScalarRing(const RowBatch& rows, const PruneContext& ctx,
                       size_t center, RowId skip_id) {
  ScanOutcome o;
  const size_t n = rows.size();
  auto try_row = [&](size_t j) {
    if (rows.id(j) == skip_id) return false;
    ++o.pairs;
    return ctx.Prunes(rows.row_values(j), rows.row_numerics(j), &o.checks);
  };
  for (size_t off = 1; off < n && !o.found; ++off) {
    o.found = (off <= center && try_row(center - off)) ||
              (center + off < n && try_row(center + off));
  }
  return o;
}

// The scalar forward loop over every row, skipping skip_id rows.
ScanOutcome ScalarForward(const RowBatch& rows, const PruneContext& ctx,
                          RowId skip_id) {
  ScanOutcome o;
  for (size_t j = 0; j < rows.size() && !o.found; ++j) {
    if (rows.id(j) == skip_id) continue;
    ++o.pairs;
    o.found = ctx.Prunes(rows.row_values(j), rows.row_numerics(j), &o.checks);
  }
  return o;
}

ScanOutcome KernelRing(DominanceKernel& kernel, size_t center,
                       RowId skip_id) {
  ScanOutcome o;
  kernel.BeginCandidate();
  o.found = kernel.FindPrunerRing(center, skip_id, &o.pairs, &o.checks);
  return o;
}

// Kernel telemetry of one sweep; dispatch-independent by contract.
struct Telemetry {
  uint64_t kernel_checks = 0;
  uint64_t promotions = 0;
  uint64_t scalar_rows = 0;
  uint64_t block_rows = 0;

  void Add(const DominanceKernel& k) {
    kernel_checks += k.kernel_checks();
    promotions += k.promotions();
    scalar_rows += k.scalar_rows();
    block_rows += k.block_rows();
  }
  bool operator==(const Telemetry& o) const {
    return kernel_checks == o.kernel_checks && promotions == o.promotions &&
           scalar_rows == o.scalar_rows && block_rows == o.block_rows;
  }
};

constexpr uint32_t kNeverPromote = std::numeric_limits<uint32_t>::max();

// The Find* adapters reproduce the scalar scan loops exactly: same pair and
// check totals, same first-pruner stop, in forward and expanding-ring order.
// Swept over every promotion threshold — never, immediately, on the first
// (left) ring row, on the second (right) one, and the default — for every
// candidate of batches of 1, 31, 33, 97 and 150 rows (so centers 0, n-1
// and the block edges 31, 32, 33), with categorical and mixed numeric
// schemas, unique ids or ids shared by every seventh row (a skip_id that
// matches several rows), and with and without an attached
// SharedCandidateCache. The kernel telemetry must also be the same on the
// AVX2 and the portable dispatch.
TEST(DominanceKernelTest, FindAdaptersMatchScalarScans) {
  const uint32_t kPromote[] = {0, 1, 2, 16, kNeverPromote};
  Telemetry per_dispatch[2];
  uint64_t left_promotions = 0, found = 0, survived = 0;
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    Telemetry& tel = per_dispatch[force_scalar ? 1 : 0];
    Rng rng(4242);
    for (const size_t n : {1, 31, 33, 97, 150}) {
      for (const bool mixed : {false, true}) {
        Rng drng = rng.Fork();
        Rng srng = rng.Fork();
        const std::vector<size_t> cards = {7, 5, 9};
        Dataset data = mixed ? GenerateMixed(n, cards, 1, 3, drng)
                             : GenerateNormal(n, cards, drng);
        SimilaritySpace space;
        for (size_t c : cards) {
          space.AddCategorical(
              MakeRandomMatrix(c, srng, {.symmetric = false}));
        }
        if (mixed) space.AddNumeric(NumericDissimilarity(0.8));
        const Schema& schema = data.schema();
        const std::vector<AttrId> selected = ResolveSelectedAttrs(schema, {});
        for (const bool dup_ids : {false, true}) {
          RowBatch rows(schema.num_attributes(), mixed);
          for (RowId r = 0; r < n; ++r) {
            rows.Append(dup_ids ? r % 7 : r, data.RowValues(r),
                        data.RowNumerics(r));
          }
          ColumnarBatch cols;
          cols.Build(rows);
          for (int qi = 0; qi < 3; ++qi) {
            Object q = SampleUniformQuery(data, rng);
            QueryDistanceTable table(space, schema, q, selected);
            PruneContext ctx(space, schema, q, selected, &table);
            for (const bool shared : {false, true}) {
              SharedCandidateCache cache;
              if (shared) cache.Attach(ctx, cols);
              for (const uint32_t promote : kPromote) {
                DominanceKernel kernel(ctx, cols, promote,
                                       shared ? &cache : nullptr);
                for (size_t center = 0; center < n; ++center) {
                  ctx.SetCandidate(rows.row_values(center),
                                   rows.row_numerics(center));
                  if (shared) cache.SetCandidate(ctx);
                  const RowId skip = rows.id(center);
                  const std::string where =
                      "n=" + std::to_string(n) +
                      " center=" + std::to_string(center) +
                      " promote=" + std::to_string(promote) +
                      " mixed=" + std::to_string(mixed) +
                      " dup=" + std::to_string(dup_ids) +
                      " shared=" + std::to_string(shared);
                  const ScanOutcome want = ScalarRing(rows, ctx, center, skip);
                  const ScanOutcome got = KernelRing(kernel, center, skip);
                  EXPECT_EQ(got.found, want.found) << "ring " << where;
                  EXPECT_EQ(got.pairs, want.pairs) << "ring " << where;
                  EXPECT_EQ(got.checks, want.checks) << "ring " << where;
                  (want.found ? found : survived) += 1;
                  // promote_rows == 1 graduates on the first row tested:
                  // offset 1's left row when it exists, is not skipped,
                  // does not prune and has a right-hand partner.
                  if (promote == 1 && center >= 1 && center + 1 < n &&
                      rows.id(center - 1) != skip) {
                    uint64_t unused = 0;
                    if (!ctx.Prunes(rows.row_values(center - 1),
                                    rows.row_numerics(center - 1), &unused)) {
                      ++left_promotions;
                    }
                  }
                  const ScanOutcome fwant = ScalarForward(rows, ctx, skip);
                  ScanOutcome fgot;
                  kernel.BeginCandidate();
                  fgot.found = kernel.FindPrunerForward(0, n, skip, &fgot.pairs,
                                                        &fgot.checks);
                  EXPECT_EQ(fgot.found, fwant.found) << "forward " << where;
                  EXPECT_EQ(fgot.pairs, fwant.pairs) << "forward " << where;
                  EXPECT_EQ(fgot.checks, fwant.checks) << "forward " << where;
                }
                tel.Add(kernel);
              }
            }
          }
        }
      }
    }
  }
  ForceScalarKernelDispatchForTest(false);
  EXPECT_TRUE(per_dispatch[0] == per_dispatch[1]);
  EXPECT_GT(per_dispatch[0].promotions, 0u);
  EXPECT_GT(per_dispatch[0].block_rows, 0u);
  EXPECT_GT(left_promotions, 0u);
  EXPECT_GT(found, 0u);
  EXPECT_GT(survived, 0u);
}

// Equal-offset pruners on both sides: the ring visits the left row of an
// offset first, so the search stops there with the right row of the same
// offset untested. A discrete metric (0 on the diagonal, 1 elsewhere) and
// a query that differs from the candidate on the last attribute only make
// exact copies of the candidate its only pruners; copies are planted at
// center - d and center + d across the 32-row block edges.
TEST(DominanceKernelTest, RingTieGoesToLeftRow) {
  constexpr size_t kCard = 4;
  constexpr size_t kRows = 97;
  SimilaritySpace space;
  for (int a = 0; a < 3; ++a) {
    DissimilarityMatrix mat(kCard);
    for (ValueId u = 0; u < kCard; ++u) {
      for (ValueId v = 0; v < kCard; ++v) {
        if (u != v) mat.Set(u, v, 1.0);
      }
    }
    space.AddCategorical(std::move(mat));
  }
  Schema schema = Schema::Categorical({kCard, kCard, kCard});
  const std::vector<AttrId> selected = {0, 1, 2};
  const std::vector<ValueId> x = {0, 0, 0};
  Object q({0, 0, 1});
  QueryDistanceTable table(space, schema, q, selected);
  PruneContext ctx(space, schema, q, selected, &table);
  Rng rng(77);
  for (const bool force_scalar : {false, true}) {
    ForceScalarKernelDispatchForTest(force_scalar);
    for (const size_t center : {20, 31, 32, 33, 40, 63, 64}) {
      for (size_t d = 1; d <= center && center + d < kRows; d += 3) {
        RowBatch rows(3, false);
        for (size_t r = 0; r < kRows; ++r) {
          std::vector<ValueId> v = {
              static_cast<ValueId>(1 + rng.Uniform(kCard - 1)),
              static_cast<ValueId>(rng.Uniform(kCard)),
              static_cast<ValueId>(rng.Uniform(kCard))};
          if (r == center || r + d == center || r == center + d) v = x;
          rows.Append(r, v.data(), nullptr);
        }
        ColumnarBatch cols;
        cols.Build(rows);
        ctx.SetCandidate(x.data(), nullptr);
        for (const uint32_t promote : {0u, 1u, 2u, 16u, kNeverPromote}) {
          DominanceKernel kernel(ctx, cols, promote);
          const ScanOutcome want = ScalarRing(rows, ctx, center, center);
          const ScanOutcome got = KernelRing(kernel, center, center);
          ASSERT_TRUE(want.found);
          EXPECT_EQ(want.pairs, 2 * d - 1) << "center=" << center;
          EXPECT_TRUE(got.found);
          EXPECT_EQ(got.pairs, want.pairs)
              << "center=" << center << " d=" << d << " promote=" << promote;
          EXPECT_EQ(got.checks, want.checks)
              << "center=" << center << " d=" << d << " promote=" << promote;
        }
      }
    }
  }
  ForceScalarKernelDispatchForTest(false);
}

TEST(DominanceKernelTest, DispatchNamesAndForceHook) {
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kScalar), "scalar");
  EXPECT_STREQ(KernelDispatchName(KernelDispatch::kAvx2), "avx2");
  ForceScalarKernelDispatchForTest(true);
  EXPECT_EQ(ActiveKernelDispatch(), KernelDispatch::kScalar);
  ForceScalarKernelDispatchForTest(false);
}

}  // namespace
}  // namespace nmrs
