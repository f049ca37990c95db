// Kernel-accounting soak (docs/KERNELS.md, ci.sh `asan` stage).
//
// Sweeps seeded random configurations through DominanceKernel's pruner
// searches and checks each against the scalar loop it replaces: the
// expanding-ring scan of SRS phase 1 (FindPrunerRing, whose promoted half
// is the masks-only BulkRing) and the forward scan (FindPrunerForward,
// BulkWindow). Per candidate the verdict, pair_tests and checks must equal
// the scalar loop's, and per configuration the kernel telemetry must be
// the same on the AVX2 and the portable dispatch. Configurations draw the
// batch size, the candidates (block edges 31/32/33 and both batch ends
// always among them), the promotion threshold, the attribute selection,
// the id layout (unique or shared by several rows, so skip_id matches more
// than one row), an optional SharedCandidateCache, optional numeric
// attributes and the matrices: uniform random, ordinal with jitter (dense
// dominance, so pruners sit at every ring offset) and quantized to three
// levels (many lhs == threshold ties).
//
// Deliberately gtest-free (like chaos_soak) so sanitizer builds contain
// only instrumented nmrs code. Exits 0 on success, aborts on violation.
//
// Usage: ring_soak [--configs=N] [--seed=S]   (defaults: 2000, 20261017)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/dominance_kernel.h"
#include "core/query_distance_table.h"
#include "data/columnar_batch.h"
#include "data/generators.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace {

DissimilarityMatrix MakeMatrix(size_t card, Rng& rng) {
  switch (rng.Uniform(3)) {
    case 0:
      return MakeRandomMatrix(card, rng, {.symmetric = rng.Bernoulli(0.5)});
    case 1: {
      // Ordinal: dissimilarity grows with rank distance, jittered and
      // asymmetric.
      DissimilarityMatrix mat(card);
      for (ValueId a = 0; a < card; ++a) {
        for (ValueId b = 0; b < card; ++b) {
          if (a == b) continue;
          const double rank = static_cast<double>(a > b ? a - b : b - a) /
                              static_cast<double>(card);
          mat.Set(a, b, rank * rng.UniformDouble(0.6, 1.4));
        }
      }
      return mat;
    }
    default: {
      DissimilarityMatrix mat(card);
      for (ValueId a = 0; a < card; ++a) {
        for (ValueId b = 0; b < card; ++b) {
          if (a != b) mat.Set(a, b, 0.5 * static_cast<double>(rng.Uniform(3)));
        }
      }
      return mat;
    }
  }
}

struct Outcome {
  bool found = false;
  uint64_t pairs = 0;
  uint64_t checks = 0;
  bool operator==(const Outcome& o) const {
    return found == o.found && pairs == o.pairs && checks == o.checks;
  }
};

struct Config {
  Dataset data{Schema()};
  SimilaritySpace space;
  Object query;
  std::vector<AttrId> selected;
  RowBatch rows{0, false};
  std::vector<size_t> centers;
  uint32_t promote_rows = 0;
  bool shared = false;
};

Config MakeConfig(Rng& rng) {
  Config c;
  const uint64_t n = 1 + rng.Uniform(rng.Bernoulli(0.3) ? 40 : 300);
  std::vector<size_t> cards(1 + rng.Uniform(4));
  for (size_t& card : cards) card = 2 + rng.Uniform(23);
  const size_t num_numeric = rng.Bernoulli(0.25) ? 1 + rng.Uniform(2) : 0;
  Rng data_rng = rng.Fork();
  if (num_numeric > 0) {
    c.data = GenerateMixed(n, cards, num_numeric, 2 + rng.Uniform(6),
                           data_rng);
  } else if (rng.Bernoulli(0.5)) {
    c.data = GenerateNormal(n, cards, data_rng);
  } else {
    c.data = GenerateUniform(n, cards, data_rng);
  }
  for (size_t card : cards) c.space.AddCategorical(MakeMatrix(card, rng));
  for (size_t k = 0; k < num_numeric; ++k) {
    c.space.AddNumeric(NumericDissimilarity(rng.UniformDouble(0.2, 2.0)));
  }
  const Schema& schema = c.data.schema();
  c.query = rng.Bernoulli(0.5) ? SampleUniformQuery(c.data, rng)
                               : SampleRowQuery(c.data, rng);
  std::vector<AttrId> sel;
  if (rng.Bernoulli(0.3)) {
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      if (rng.Bernoulli(0.6)) sel.push_back(a);
    }
  }
  c.selected = ResolveSelectedAttrs(schema, sel);

  // Row order: as generated, or sorted by value like SRS's input, which
  // puts likely pruners next to each candidate.
  std::vector<RowId> order(n);
  std::iota(order.begin(), order.end(), RowId{0});
  if (rng.Bernoulli(0.5)) {
    std::sort(order.begin(), order.end(), [&](RowId a, RowId b) {
      return std::lexicographical_compare(
          c.data.RowValues(a), c.data.RowValues(a) + c.data.num_attributes(),
          c.data.RowValues(b), c.data.RowValues(b) + c.data.num_attributes());
    });
  }
  const uint64_t id_mod = rng.Bernoulli(0.3) ? 2 + rng.Uniform(8) : 0;
  c.rows = RowBatch(schema.num_attributes(), num_numeric > 0);
  for (uint64_t i = 0; i < n; ++i) {
    const RowId r = order[i];
    c.rows.Append(id_mod != 0 ? r % id_mod : r, c.data.RowValues(r),
                  c.data.RowNumerics(r));
  }

  if (n <= 64) {
    for (size_t i = 0; i < n; ++i) c.centers.push_back(i);
  } else {
    for (size_t i : {size_t{0}, size_t{31}, size_t{32}, size_t{33}, n - 1}) {
      c.centers.push_back(i);
    }
    for (int i = 0; i < 48; ++i) c.centers.push_back(rng.Uniform(n));
  }
  const uint32_t thresholds[] = {0, 1, 2, 3, 16,
                                 static_cast<uint32_t>(rng.Uniform(64)),
                                 std::numeric_limits<uint32_t>::max()};
  c.promote_rows = thresholds[rng.Uniform(7)];
  c.shared = rng.Bernoulli(0.3);
  return c;
}

// Kernel outcomes of every candidate plus the telemetry (kernel checks,
// promotions, probed rows, block rows) at the active dispatch.
struct KernelRun {
  std::vector<Outcome> ring, forward;
  uint64_t telemetry[4] = {0, 0, 0, 0};
};

KernelRun RunKernel(const Config& c, PruneContext& ctx,
                    const ColumnarBatch& cols) {
  KernelRun run;
  SharedCandidateCache cache;
  if (c.shared) cache.Attach(ctx, cols);
  DominanceKernel kernel(ctx, cols, c.promote_rows,
                         c.shared ? &cache : nullptr);
  for (size_t center : c.centers) {
    ctx.SetCandidate(c.rows.row_values(center), c.rows.row_numerics(center));
    if (c.shared) cache.SetCandidate(ctx);
    const RowId skip = c.rows.id(center);
    Outcome ring, forward;
    kernel.BeginCandidate();
    ring.found = kernel.FindPrunerRing(center, skip, &ring.pairs, &ring.checks);
    kernel.BeginCandidate();
    forward.found = kernel.FindPrunerForward(0, c.rows.size(), skip,
                                             &forward.pairs, &forward.checks);
    run.ring.push_back(ring);
    run.forward.push_back(forward);
  }
  run.telemetry[0] = kernel.kernel_checks();
  run.telemetry[1] = kernel.promotions();
  run.telemetry[2] = kernel.scalar_rows();
  run.telemetry[3] = kernel.block_rows();
  return run;
}

// Coverage totals over the sweep, printed at the end: a soak whose
// candidates never reach the block paths would check nothing.
struct Coverage {
  uint64_t candidates = 0;
  uint64_t ring_pruned = 0;
  uint64_t promotions = 0;
  uint64_t block_rows = 0;
};

void CheckConfig(int index, uint64_t seed, Coverage* cov) {
  Rng rng(seed);
  const Config c = MakeConfig(rng);
  const Schema& schema = c.data.schema();
  QueryDistanceTable table(c.space, schema, c.query, c.selected);
  PruneContext ctx(c.space, schema, c.query, c.selected, &table);
  ColumnarBatch cols;
  cols.Build(c.rows);
  const RowBatch& rows = c.rows;
  const size_t n = rows.size();

  ForceScalarKernelDispatchForTest(false);
  const KernelRun native = RunKernel(c, ctx, cols);
  ForceScalarKernelDispatchForTest(true);
  const KernelRun portable = RunKernel(c, ctx, cols);
  ForceScalarKernelDispatchForTest(false);
  for (int t = 0; t < 4; ++t) {
    NMRS_CHECK(native.telemetry[t] == portable.telemetry[t])
        << "config " << index << " (seed " << seed << "): telemetry " << t
        << " differs across dispatches";
  }

  cov->candidates += c.centers.size();
  cov->promotions += native.telemetry[1];
  cov->block_rows += native.telemetry[3];
  for (size_t i = 0; i < c.centers.size(); ++i) {
    const size_t center = c.centers[i];
    ctx.SetCandidate(rows.row_values(center), rows.row_numerics(center));
    const RowId skip = rows.id(center);
    auto try_row = [&](size_t j, Outcome* o) {
      if (rows.id(j) == skip) return false;
      ++o->pairs;
      return ctx.Prunes(rows.row_values(j), rows.row_numerics(j), &o->checks);
    };
    Outcome ring;
    for (size_t off = 1; off < n && !ring.found; ++off) {
      ring.found = (off <= center && try_row(center - off, &ring)) ||
                   (center + off < n && try_row(center + off, &ring));
    }
    cov->ring_pruned += ring.found ? 1 : 0;
    Outcome forward;
    for (size_t j = 0; j < n && !forward.found; ++j) {
      forward.found = try_row(j, &forward);
    }
    for (const KernelRun* run : {&native, &portable}) {
      NMRS_CHECK(run->ring[i] == ring)
          << "config " << index << " (seed " << seed << "): ring center "
          << center << " of " << n << ", promote_rows " << c.promote_rows
          << ": kernel " << run->ring[i].found << "/" << run->ring[i].pairs
          << "/" << run->ring[i].checks << " vs scalar " << ring.found << "/"
          << ring.pairs << "/" << ring.checks;
      NMRS_CHECK(run->forward[i] == forward)
          << "config " << index << " (seed " << seed << "): forward center "
          << center << " of " << n << ", promote_rows " << c.promote_rows;
    }
  }
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) {
  int configs = 2000;
  uint64_t seed = 20261017;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--configs=", 10) == 0) {
      configs = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--configs=N] [--seed=S]\n", argv[0]);
      return 2;
    }
  }
  nmrs::Rng master(seed);
  nmrs::Coverage cov;
  for (int i = 0; i < configs; ++i) {
    nmrs::CheckConfig(i, master.Next64(), &cov);
    if ((i + 1) % 250 == 0 || i + 1 == configs) {
      std::printf("ring soak: %d/%d configs ok\n", i + 1, configs);
      std::fflush(stdout);
    }
  }
  std::printf(
      "ring soak: %llu candidates, %llu ring-pruned, %llu promotions, "
      "%llu block rows\n",
      static_cast<unsigned long long>(cov.candidates),
      static_cast<unsigned long long>(cov.ring_pruned),
      static_cast<unsigned long long>(cov.promotions),
      static_cast<unsigned long long>(cov.block_rows));
  return 0;
}
