// Randomized end-to-end equivalence sweep for RSOptions::use_kernels: on
// every wired algorithm (Naive, BRS, SRS, TRS, bichromatic block), over
// categorical and mixed-numeric schemas, attribute subsets, asymmetric
// matrices, page caching, intra-query parallelism, replica failover, and
// the whole adaptive-promotion range (RSOptions::kernel_promote_rows from
// "always block" to "never promote"), the kernel path must return
// bit-identical rows — and, where the contract promises it
// (docs/KERNELS.md), bit-identical check accounting — to the scalar path,
// on both dispatch implementations.
#include <gtest/gtest.h>

#include <vector>

#include "core/bichromatic.h"
#include "core/dominance_kernel.h"
#include "core/pipeline.h"
#include "core/skyline.h"
#include "data/generators.h"
#include "sim/matrix_overlay.h"
#include "storage/buffer_pool.h"
#include "storage/disk_view.h"
#include "storage/fault_injection.h"

namespace nmrs {
namespace {

// The promotion thresholds every equivalence sweep runs: always-block
// (pre-adaptive), promote-after-2, the default-ish 16, and never-promote
// (the pure scalar-probe regime).
constexpr uint32_t kPromoteSweep[] = {0u, 2u, 16u, 1u << 30};

// The adaptive telemetry invariants at the sweep's extremes; anything in
// between mixes the regimes and only the bit-identity checks apply.
void ExpectAdaptiveInvariants(const QueryStats& kernel, uint32_t promote,
                              bool trs_hybrid, const std::string& label) {
  if (promote == 0) {
    // Immediate promotion: no scalar probing.
    EXPECT_EQ(kernel.kernel_scalar_rows, 0u) << label;
    if (trs_hybrid) {
      // TRS promotion escapes to the pruned tree traversal, not to block
      // evaluation: with promote 0 every candidate goes straight to the
      // traversal and the block path never runs.
      EXPECT_EQ(kernel.kernel_block_rows, 0u) << label;
      EXPECT_EQ(kernel.kernel_checks, 0u) << label;
    } else if (kernel.pair_tests > 0) {
      // Any visited row was evaluated by a block.
      EXPECT_GT(kernel.kernel_checks, 0u) << label;
    }
  } else if (promote == (1u << 30)) {
    // Never promoted: the block path never runs.
    EXPECT_EQ(kernel.kernel_promotions, 0u) << label;
    EXPECT_EQ(kernel.kernel_block_rows, 0u) << label;
    EXPECT_EQ(kernel.kernel_checks, 0u) << label;
  }
}

struct SweepInstance {
  Dataset data;
  SimilaritySpace space;
  Object query;
  std::vector<AttrId> selected;
  bool mixed = false;

  explicit SweepInstance(Rng& master) : data(Schema::Categorical({1})) {
    const size_t mc = 1 + master.Uniform(4);
    std::vector<size_t> cards(mc);
    for (auto& c : cards) c = 2 + master.Uniform(30);
    const size_t num_numeric =
        master.Bernoulli(0.35) ? 1 + master.Uniform(2) : 0;
    mixed = num_numeric > 0;
    const uint64_t n = 30 + master.Uniform(350);
    const bool asym = master.Bernoulli(0.5);
    Rng drng = master.Fork();
    Rng srng = master.Fork();
    Rng qrng = master.Fork();
    data = mixed ? GenerateMixed(n, cards, num_numeric, 4, drng)
                 : (master.Bernoulli(0.5) ? GenerateNormal(n, cards, drng)
                                          : GenerateUniform(n, cards, drng));
    for (size_t c : cards) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = !asym}));
    }
    for (size_t i = 0; i < num_numeric; ++i) {
      space.AddNumeric(NumericDissimilarity());
    }
    query = master.Bernoulli(0.5) ? SampleUniformQuery(data, qrng)
                                  : SampleRowQuery(data, qrng);
    if (master.Bernoulli(0.3)) {
      const size_t m = data.schema().num_attributes();
      for (AttrId a = 0; a < m; ++a) {
        if (master.Bernoulli(0.6)) selected.push_back(a);
      }
    }
  }
};

void ExpectSameRows(const ReverseSkylineResult& scalar,
                    const ReverseSkylineResult& kernel,
                    const char* label) {
  EXPECT_EQ(scalar.rows, kernel.rows) << label;
}

// The exact-accounting contract of Naive/BRS/SRS/bichromatic-block.
void ExpectSameCounts(const QueryStats& scalar, const QueryStats& kernel,
                      const char* label) {
  EXPECT_EQ(scalar.checks, kernel.checks) << label;
  EXPECT_EQ(scalar.pair_tests, kernel.pair_tests) << label;
  EXPECT_EQ(scalar.phase1_checks, kernel.phase1_checks) << label;
  EXPECT_EQ(scalar.phase2_checks, kernel.phase2_checks) << label;
  EXPECT_EQ(scalar.phase1_survivors, kernel.phase1_survivors) << label;
  EXPECT_EQ(scalar.io, kernel.io) << label;
  EXPECT_EQ(scalar.kernel_checks, 0u) << label;
  EXPECT_EQ(scalar.kernel_promotions, 0u) << label;
  EXPECT_EQ(scalar.kernel_scalar_rows, 0u) << label;
  EXPECT_EQ(scalar.kernel_block_rows, 0u) << label;
}

class KernelDeterminismSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDeterminismSweep, WiredAlgorithmsAreBitIdentical) {
  Rng master(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    SweepInstance inst(master);
    auto expected =
        ReverseSkylineOracle(inst.data, inst.space, inst.query,
                             inst.selected);

    SimulatedDisk disk(128 + master.Uniform(900));
    RSOptions base;
    base.memory.pages = 2 + master.Uniform(8);
    base.selected_attrs = inst.selected;
    base.num_threads = master.Bernoulli(0.4) ? 3 : 1;
    const bool cache = master.Bernoulli(0.4);

    for (Algorithm algo : {Algorithm::kNaive, Algorithm::kBRS,
                           Algorithm::kSRS, Algorithm::kTRS}) {
      auto prep = PrepareDataset(&disk, inst.data, algo, {});
      ASSERT_TRUE(prep.ok());
      // One pool per run: a shared pool would carry warm pages from the
      // scalar run into the kernel runs and skew the IO comparison.
      BufferPool scalar_pool(&disk,
                             BufferPoolOptions::FromBudget(MemoryBudget{8}));
      RSOptions scalar_opts = base;
      if (cache) scalar_opts.buffer_pool = &scalar_pool;
      auto scalar = RunReverseSkyline(*prep, inst.space, inst.query, algo,
                                      scalar_opts);
      ASSERT_TRUE(scalar.ok()) << AlgorithmName(algo);
      EXPECT_EQ(scalar->rows, expected) << AlgorithmName(algo);
      for (const uint32_t promote : kPromoteSweep) {
        BufferPool kernel_pool(
            &disk, BufferPoolOptions::FromBudget(MemoryBudget{8}));
        RSOptions kernel_opts = base;
        kernel_opts.use_kernels = true;
        kernel_opts.kernel_promote_rows = promote;
        if (cache) kernel_opts.buffer_pool = &kernel_pool;
        auto kernel = RunReverseSkyline(*prep, inst.space, inst.query, algo,
                                        kernel_opts);
        ASSERT_TRUE(kernel.ok()) << AlgorithmName(algo);
        const std::string label =
            std::string(AlgorithmName(algo)) + " trial " +
            std::to_string(trial) + " promote " + std::to_string(promote) +
            " seed " + std::to_string(GetParam());
        ExpectSameRows(*scalar, *kernel, label.c_str());
        const bool trs_fast_path =
            algo == Algorithm::kTRS && !inst.mixed &&
            (inst.selected.empty() ||
             inst.selected.size() == inst.data.schema().num_attributes());
        if (algo == Algorithm::kTRS) {
          // TRS phase 2 is always scalar; on the fast path (all
          // attributes, all categorical) phase 1 probes the flat leaf
          // block and escapes promoted candidates to the tree traversal,
          // so `checks` carries only the escaped traversals' group-level
          // counts while pair tests (one per candidate leaf) and the
          // spilled survivors still match exactly.
          EXPECT_EQ(scalar->stats.phase2_checks,
                    kernel->stats.phase2_checks)
              << label;
          EXPECT_EQ(scalar->stats.pair_tests, kernel->stats.pair_tests)
              << label;
          EXPECT_EQ(scalar->stats.phase1_survivors,
                    kernel->stats.phase1_survivors)
              << label;
          EXPECT_EQ(scalar->stats.io, kernel->stats.io)
              << label;
          if (!trs_fast_path) {
            // Off the fast path the flag is inert: everything matches.
            ExpectSameCounts(scalar->stats, kernel->stats, label.c_str());
          }
        } else {
          ExpectSameCounts(scalar->stats, kernel->stats, label.c_str());
        }
        if (trs_fast_path || algo != Algorithm::kTRS) {
          ExpectAdaptiveInvariants(kernel->stats, promote,
                                   algo == Algorithm::kTRS, label);
        }
      }
    }
  }
}

// The two lane implementations (AVX2 and portable scalar) must agree on
// everything, including the kernel_checks instrumentation and the adaptive
// telemetry — the promotion decision depends only on verdicts, which are
// dispatch-invariant. promote_rows = 3 keeps both regimes (probe and
// block) active in every run.
TEST_P(KernelDeterminismSweep, DispatchPathsAgree) {
  Rng master(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 4; ++trial) {
    SweepInstance inst(master);
    SimulatedDisk disk(512);
    RSOptions opts;
    opts.memory.pages = 4;
    opts.selected_attrs = inst.selected;
    opts.use_kernels = true;
    opts.kernel_promote_rows = 3;
    for (Algorithm algo : {Algorithm::kBRS, Algorithm::kSRS,
                           Algorithm::kTRS}) {
      auto prep = PrepareDataset(&disk, inst.data, algo, {});
      ASSERT_TRUE(prep.ok());
      auto native =
          RunReverseSkyline(*prep, inst.space, inst.query, algo, opts);
      ForceScalarKernelDispatchForTest(true);
      auto forced =
          RunReverseSkyline(*prep, inst.space, inst.query, algo, opts);
      ForceScalarKernelDispatchForTest(false);
      ASSERT_TRUE(native.ok() && forced.ok()) << AlgorithmName(algo);
      EXPECT_EQ(native->rows, forced->rows) << AlgorithmName(algo);
      EXPECT_EQ(native->stats.checks, forced->stats.checks)
          << AlgorithmName(algo);
      EXPECT_EQ(native->stats.pair_tests, forced->stats.pair_tests)
          << AlgorithmName(algo);
      EXPECT_EQ(native->stats.kernel_checks, forced->stats.kernel_checks)
          << AlgorithmName(algo);
      EXPECT_EQ(native->stats.kernel_promotions,
                forced->stats.kernel_promotions)
          << AlgorithmName(algo);
      EXPECT_EQ(native->stats.kernel_scalar_rows,
                forced->stats.kernel_scalar_rows)
          << AlgorithmName(algo);
      EXPECT_EQ(native->stats.kernel_block_rows,
                forced->stats.kernel_block_rows)
          << AlgorithmName(algo);
    }
  }
}

// Adaptive promotion composes with replica failover: a permanently bad
// middle page on the primary plus one clean replica must leave rows and
// check accounting bit-identical to the fault-free scalar run, at every
// promotion threshold. A fresh FaultyDisk per run keeps the deterministic
// fault stream aligned across runs.
TEST_P(KernelDeterminismSweep, AdaptivePromotionSurvivesReplicaFailover) {
  Rng master(GetParam() ^ 0xfa11);
  SweepInstance inst(master);
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kBRS, Algorithm::kSRS,
        Algorithm::kTRS}) {
    SimulatedDisk base(256);
    auto prep = PrepareDataset(&base, inst.data, algo, {});
    ASSERT_TRUE(prep.ok());
    RSOptions clean_opts;
    clean_opts.memory.pages = 3;
    clean_opts.selected_attrs = inst.selected;
    auto expected =
        RunReverseSkyline(*prep, inst.space, inst.query, algo, clean_opts);
    ASSERT_TRUE(expected.ok()) << AlgorithmName(algo);

    FaultConfig cfg;
    const PageId bad =
        static_cast<PageId>(base.NumPages(prep->stored.file()) / 2);
    cfg.bad_pages.insert({prep->stored.file(), bad});
    for (const uint32_t promote : kPromoteSweep) {
      FaultInjector injector(cfg);
      DiskView primary(&base);
      DiskView replica(&base);
      FaultyDisk faulty(&primary, &injector, /*stream=*/0,
                        /*fault_ceiling=*/base.next_file_id());
      PreparedDataset local{
          StoredDataset(&faulty, prep->stored.file(), prep->stored.schema(),
                        prep->stored.num_rows()),
          prep->attr_order, 0};
      RSOptions rs = clean_opts;
      rs.use_kernels = true;
      rs.kernel_promote_rows = promote;
      rs.failover_disks = {&replica};
      rs.failover_limit = base.next_file_id();
      auto result =
          RunReverseSkyline(local, inst.space, inst.query, algo, rs);
      ASSERT_TRUE(result.ok())
          << AlgorithmName(algo) << ": " << result.status();
      const std::string label = std::string(AlgorithmName(algo)) +
                                " promote " + std::to_string(promote);
      EXPECT_EQ(result->rows, expected->rows) << label;
      EXPECT_EQ(result->stats.pair_tests, expected->stats.pair_tests)
          << label;
      EXPECT_GT(result->stats.io.failovers, 0u) << label;
      EXPECT_GT(result->stats.io.replica_reads[1], 0u) << label;
    }
  }
}

TEST_P(KernelDeterminismSweep, BichromaticBlockIsBitIdentical) {
  Rng master(GetParam() + 17);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t mc = 1 + master.Uniform(3);
    std::vector<size_t> cards(mc);
    for (auto& c : cards) c = 2 + master.Uniform(20);
    Rng crng = master.Fork();
    Rng prng = master.Fork();
    Rng srng = master.Fork();
    Rng qrng = master.Fork();
    Dataset candidates =
        GenerateNormal(20 + master.Uniform(150), cards, crng);
    Dataset competitors =
        GenerateUniform(20 + master.Uniform(150), cards, prng);
    SimilaritySpace space;
    for (size_t c : cards) {
      space.AddCategorical(MakeRandomMatrix(c, srng, {.symmetric = false}));
    }
    Object q = SampleUniformQuery(candidates, qrng);

    SimulatedDisk disk(256);
    auto stored_c = StoredDataset::Create(&disk, candidates, "bi-cand");
    auto stored_p = StoredDataset::Create(&disk, competitors, "bi-comp");
    ASSERT_TRUE(stored_c.ok() && stored_p.ok());
    RSOptions opts;
    opts.memory.pages = 2 + master.Uniform(4);
    auto scalar = BichromaticBlockRS(*stored_c, *stored_p, space, q, opts);
    ASSERT_TRUE(scalar.ok());
    for (const uint32_t promote : kPromoteSweep) {
      opts.use_kernels = true;
      opts.kernel_promote_rows = promote;
      auto kernel = BichromaticBlockRS(*stored_c, *stored_p, space, q, opts);
      ASSERT_TRUE(kernel.ok());
      const std::string label = "trial " + std::to_string(trial) +
                                " promote " + std::to_string(promote);
      EXPECT_EQ(scalar->rows, kernel->rows) << label;
      EXPECT_EQ(scalar->stats.checks, kernel->stats.checks) << label;
      EXPECT_EQ(scalar->stats.pair_tests, kernel->stats.pair_tests) << label;
      ExpectAdaptiveInvariants(kernel->stats, promote, /*trs_hybrid=*/false,
                               label);
    }
  }
}

// Per-user overlays compose with everything above: evaluating with
// RSOptions::overlay must be bit-identical — rows, pair tests and IO — to
// rebuilding the patched space and running without an overlay, for every
// wired algorithm, with kernels off and at both promotion extremes.
// `checks` matches too except on the TRS kernel fast path, where the
// kernel-vs-scalar contract itself only promises pair tests (see
// WiredAlgorithmsAreBitIdentical).
TEST_P(KernelDeterminismSweep, OverlayMatchesPatchedSpaceRebuild) {
  Rng master(GetParam() ^ 0x07e1);
  struct Mode {
    bool kernels;
    uint32_t promote;
  };
  constexpr Mode kModes[] = {{false, 0u}, {true, 0u}, {true, 16u}};
  for (int trial = 0; trial < 4; ++trial) {
    SweepInstance inst(master);
    Rng orng = master.Fork();
    const double touch = master.Bernoulli(0.5) ? 0.02 : 0.15;
    MatrixOverlay overlay = MakeRandomOverlay(inst.space, orng, touch);
    ASSERT_FALSE(overlay.empty());
    SimilaritySpace patched = overlay.BuildPatchedSpace();

    SimulatedDisk disk(256 + master.Uniform(700));
    RSOptions base;
    base.memory.pages = 2 + master.Uniform(6);
    base.selected_attrs = inst.selected;
    for (Algorithm algo : {Algorithm::kNaive, Algorithm::kBRS,
                           Algorithm::kSRS, Algorithm::kTRS}) {
      auto prep = PrepareDataset(&disk, inst.data, algo, {});
      ASSERT_TRUE(prep.ok());
      auto rebuilt =
          RunReverseSkyline(*prep, patched, inst.query, algo, base);
      ASSERT_TRUE(rebuilt.ok()) << AlgorithmName(algo);
      for (const Mode& mode : kModes) {
        RSOptions opts = base;
        opts.overlay = &overlay;
        opts.use_kernels = mode.kernels;
        opts.kernel_promote_rows = mode.promote;
        auto overlaid =
            RunReverseSkyline(*prep, inst.space, inst.query, algo, opts);
        ASSERT_TRUE(overlaid.ok()) << AlgorithmName(algo);
        const std::string label =
            std::string(AlgorithmName(algo)) + " trial " +
            std::to_string(trial) +
            (mode.kernels ? " kernels promote " + std::to_string(mode.promote)
                          : " scalar") +
            " seed " + std::to_string(GetParam());
        EXPECT_EQ(overlaid->rows, rebuilt->rows) << label;
        EXPECT_EQ(overlaid->stats.pair_tests, rebuilt->stats.pair_tests)
            << label;
        EXPECT_EQ(overlaid->stats.io, rebuilt->stats.io) << label;
        if (!mode.kernels || algo != Algorithm::kTRS) {
          EXPECT_EQ(overlaid->stats.checks, rebuilt->stats.checks) << label;
          EXPECT_EQ(overlaid->stats.phase1_survivors,
                    rebuilt->stats.phase1_survivors)
              << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDeterminismSweep,
                         ::testing::Values(20260807, 4242, 991));

}  // namespace
}  // namespace nmrs
