// Fault-injection chaos soak (docs/ROBUSTNESS.md, ci.sh `chaos` stage).
//
// Sweeps many seeded random fault configurations through the batch engine
// and checks the robustness layer's core contract on each: a query the
// faults did not touch must return rows and IO bit-identical to the clean
// run, a query the faults did touch must either recover exactly or fail
// with a storage-fault status — never crash, never silently return wrong
// rows. Each config also runs at two worker counts to re-check that fault
// patterns are scheduling-independent.
//
// Deliberately gtest-free (like exec_stress) so sanitizer builds contain
// only instrumented nmrs code. Exits 0 on success, aborts on violation.
//
// Configs also draw 1..3 storage replicas; most multi-replica configs
// fault a single replica (sometimes killing it outright), where the
// contract tightens to "page-granular failover recovers every query".
// --min-replicas=2 restricts the sweep to multi-replica configs (the ci.sh
// replica chaos stage).
//
// The faulted runs also draw RSOptions::use_kernels and a kernel promotion
// threshold from {0, 16, never}, so the kernel branches of every scan —
// the sharded exchange verify included — run under faults and are checked
// against the scalar clean baseline. Those two draws come from their own
// Rng seeded by the config index, leaving every other draw as it was.
//
// Usage: chaos_soak [--configs=N] [--seed=S] [--min-replicas=R]
// (defaults: 500, 20260807, 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "data/generators.h"
#include "db/database.h"
#include "exec/sharded_engine.h"
#include "sim/dissimilarity_matrix.h"
#include "sim/matrix_overlay.h"

namespace nmrs {
namespace {

struct Scenario {
  Dataset data;
  SimilaritySpace space;
  std::vector<Object> queries;
  Algorithm algo = Algorithm::kSRS;
  bool checksums = false;
};

Scenario MakeScenario(Rng& rng) {
  const std::vector<size_t> cards = {5, 6, 7};
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const uint64_t rows = 1000 + rng.Uniform(2000);
  Scenario s{GenerateNormal(rows, cards, data_rng), {}, {}};
  for (size_t card : cards) {
    s.space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  const size_t num_queries = 8 + rng.Uniform(9);
  for (size_t i = 0; i < num_queries; ++i) {
    s.queries.push_back(SampleUniformQuery(s.data, rng));
  }
  const Algorithm algos[] = {Algorithm::kNaive, Algorithm::kBRS,
                             Algorithm::kSRS, Algorithm::kTRS};
  s.algo = algos[rng.Uniform(4)];
  s.checksums = rng.Bernoulli(0.5);
  return s;
}

// One random fault configuration. Corruption only makes sense against a
// sealed dataset (without checksums it is undetectable by design and would
// legitimately change result rows), so corrupt_p stays 0 unless the
// scenario checksums its pages.
FaultConfig MakeFaults(Rng& rng, const PreparedDataset& prepared,
                       bool checksums) {
  FaultConfig cfg;
  cfg.seed = rng.Next64();
  const double transient_grades[] = {0.0, 1e-3, 1e-2, 0.05};
  cfg.transient_read_p = transient_grades[rng.Uniform(4)];
  if (checksums) {
    const double corrupt_grades[] = {0.0, 1e-3, 1e-2};
    cfg.corrupt_p = corrupt_grades[rng.Uniform(3)];
  }
  const double loss_grades[] = {0.0, 1e-3, 1e-2};
  cfg.data_loss_p = loss_grades[rng.Uniform(3)];
  const uint64_t pages =
      prepared.stored.disk()->NumPages(prepared.stored.file());
  const size_t num_bad = rng.Uniform(3);  // 0..2 permanently bad pages
  for (size_t i = 0; i < num_bad && pages > 0; ++i) {
    cfg.bad_pages.insert(
        {prepared.stored.file(), static_cast<PageId>(rng.Uniform(pages))});
  }
  return cfg;
}

uint64_t FaultCounterSum(const IoStats& io) {
  // A failover-recovered query legitimately charges extra IO (the failed
  // replica attempt + the replica read), so failovers count as "touched by
  // faults" alongside the PR 3 counters.
  return io.transient_retries + io.checksum_failures + io.quarantined_pages +
         io.failovers;
}

void CheckConfig(int index, uint64_t scenario_seed, int min_replicas) {
  Rng rng(scenario_seed);
  Scenario s = MakeScenario(rng);

  SimulatedDisk disk;
  PrepareOptions popts;
  popts.checksum_pages = s.checksums;
  auto prepared = PrepareDataset(&disk, s.data, s.algo, popts);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();

  // Clean baseline (same checksum setting, no faults).
  ShardedBatchResult clean;
  {
    EngineOptions opts;
    opts.num_workers = 2;
    auto batch =
        ShardedQueryEngine(one, s.space, s.algo, opts).RunBatch(s.queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();
    clean = std::move(*batch);
  }

  EngineOptions fopts;
  fopts.faults = MakeFaults(rng, *prepared, s.checksums);
  fopts.rs.resilience.retry.max_attempts = 1 + static_cast<int>(rng.Uniform(3));
  fopts.max_query_retries = static_cast<int>(rng.Uniform(2));
  {
    Rng kernel_rng(static_cast<uint64_t>(index));
    constexpr uint32_t kPromote[] = {0, 16, 1u << 30};
    fopts.rs.use_kernels = kernel_rng.Bernoulli(0.5);
    fopts.rs.kernel_promote_rows = kPromote[kernel_rng.Uniform(3)];
  }

  // Replica failover (docs/ROBUSTNESS.md): 1..3 replicas. With >= 2, most
  // configs fault only replica 0 — sometimes killing it outright — which
  // upgrades the contract: page-granular failover to the healthy replicas
  // must recover EVERY query, no failures allowed.
  const int replicas =
      min_replicas +
      static_cast<int>(rng.Uniform(static_cast<uint64_t>(4 - min_replicas)));
  bool expect_zero_failures = false;
  if (replicas >= 2) {
    fopts.rs.resilience.replicas = replicas;
    if (rng.Bernoulli(0.7)) {
      FaultConfig lossy = fopts.faults;
      if (rng.Bernoulli(0.25)) lossy.data_loss_p = 1.0;  // dead replica
      fopts.faults = FaultConfig{};
      fopts.replica_faults.assign(static_cast<size_t>(replicas),
                                  FaultConfig{});
      fopts.replica_faults[0] = lossy;
      expect_zero_failures = true;
    }
  }

  ShardedBatchResult reference;
  bool have_reference = false;
  for (size_t workers : {1u, 4u}) {
    EngineOptions opts = fopts;
    opts.num_workers = workers;
    auto batch =
        ShardedQueryEngine(one, s.space, s.algo, opts).RunBatch(s.queries);
    NMRS_CHECK(batch.ok()) << "config " << index << ": " << batch.status();

    if (expect_zero_failures) {
      NMRS_CHECK(batch->ok())
          << "config " << index << " (replicas=" << replicas
          << ", one faulted): failover left " << batch->num_failed()
          << " failed queries; first: " << batch->first_error();
    }

    for (size_t i = 0; i < s.queries.size(); ++i) {
      const Status& st = batch->statuses[i];
      if (st.ok()) {
        // Success means exactly the clean answer — recovered or untouched.
        NMRS_CHECK(batch->results[i].rows == clean.results[i].rows)
            << "config " << index << " query " << i
            << ": rows diverged under faults";
        // Bit-identical IO: a fault-free query trivially, a retried-and-
        // absorbed query is skipped (its IO legitimately includes the
        // retries), a clean-view-recovered query reports the clean
        // attempt's stats and so also matches. Replica accounting is
        // normalized away first: with failover replicas attached every
        // read counts into replica_reads, which the (replica-less) clean
        // baseline leaves at zero.
        IoStats io = batch->results[i].stats.io;
        if (FaultCounterSum(io) == 0) {
          io.replica_reads = {};
          NMRS_CHECK(io == clean.results[i].stats.io)
              << "config " << index << " query " << i
              << ": fault-free IO diverged";
        }
      } else {
        NMRS_CHECK(st.IsStorageFault())
            << "config " << index << " query " << i
            << ": non-storage failure " << st;
        NMRS_CHECK(batch->results[i].rows.empty());
      }
    }

    if (!have_reference) {
      reference = std::move(*batch);
      have_reference = true;
    } else {
      // Worker count must not change anything observable.
      for (size_t i = 0; i < s.queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == reference.results[i].rows);
        NMRS_CHECK(batch->results[i].stats.io == reference.results[i].stats.io)
            << "config " << index << " query " << i
            << ": per-query IO depends on worker count";
        NMRS_CHECK(batch->statuses[i].ToString() ==
                   reference.statuses[i].ToString());
      }
      NMRS_CHECK(batch->total_io == reference.total_io);
      NMRS_CHECK(batch->quarantined == reference.quarantined);
      NMRS_CHECK(batch->tasks_retried == reference.tasks_retried);
    }
  }

  // Overlay leg (docs/OVERLAYS.md): the incremental multi-tenant executor
  // through the same fault config. The base run and the re-check scans all
  // go through the faulted storage, so the contract mirrors the plain
  // batch: an ok query must hand every user rows bit-identical to that
  // user's patched-space clean answer, a failed query reports a storage
  // fault, and nothing observable depends on the worker count. A small
  // query subset keeps the per-config cost down (the smoke run does 25
  // configs).
  {
    Rng orng = rng.Fork();
    std::vector<MatrixOverlay> overlays;
    overlays.push_back(MakeRandomOverlay(s.space, orng, 0.01));
    overlays.push_back(MakeRandomOverlay(s.space, orng, 0.10));
    std::vector<const MatrixOverlay*> optrs;
    for (const auto& o : overlays) optrs.push_back(&o);
    const std::vector<Object> oqueries(
        s.queries.begin(),
        s.queries.begin() +
            static_cast<long>(std::min<size_t>(4, s.queries.size())));

    // Per-user clean reference: rebuild each patched space and run the
    // engine over it, no faults.
    std::vector<std::vector<std::vector<RowId>>> owant(
        oqueries.size(), std::vector<std::vector<RowId>>(overlays.size()));
    for (size_t u = 0; u < overlays.size(); ++u) {
      SimilaritySpace patched = overlays[u].BuildPatchedSpace();
      EngineOptions copts;
      copts.num_workers = 1;
      auto batch =
          ShardedQueryEngine(one, patched, s.algo, copts).RunBatch(oqueries);
      NMRS_CHECK(batch.ok()) << batch.status();
      NMRS_CHECK(batch->ok()) << batch->first_error();
      for (size_t q = 0; q < oqueries.size(); ++q) {
        owant[q][u] = batch->results[q].rows;
      }
    }

    OverlayBatchResult oref;
    bool have_oref = false;
    for (size_t workers : {1u, 4u}) {
      EngineOptions opts = fopts;
      opts.num_workers = workers;
      auto ob = ShardedQueryEngine(one, s.space, s.algo, opts)
                    .RunOverlayBatch(oqueries, optrs);
      NMRS_CHECK(ob.ok()) << "config " << index << " (overlay): "
                          << ob.status();
      if (expect_zero_failures) {
        NMRS_CHECK(ob->ok())
            << "config " << index << " (overlay, replicas=" << replicas
            << ", one faulted): " << ob->first_error();
      }
      for (size_t q = 0; q < oqueries.size(); ++q) {
        if (ob->statuses[q].ok()) {
          for (size_t u = 0; u < overlays.size(); ++u) {
            NMRS_CHECK(ob->results[q][u].rows == owant[q][u])
                << "config " << index << " overlay query " << q << " user "
                << u << ": rows diverged under faults";
          }
        } else {
          NMRS_CHECK(ob->statuses[q].IsStorageFault())
              << "config " << index << " overlay query " << q
              << ": non-storage failure " << ob->statuses[q];
        }
      }
      if (!have_oref) {
        oref = std::move(*ob);
        have_oref = true;
      } else {
        for (size_t q = 0; q < oqueries.size(); ++q) {
          for (size_t u = 0; u < overlays.size(); ++u) {
            NMRS_CHECK(ob->results[q][u].rows == oref.results[q][u].rows);
          }
          NMRS_CHECK(ob->statuses[q].ToString() ==
                     oref.statuses[q].ToString());
        }
        NMRS_CHECK(ob->sensitive_rows == oref.sensitive_rows);
        NMRS_CHECK(ob->invariant_rows == oref.invariant_rows);
        NMRS_CHECK(ob->recheck_scans == oref.recheck_scans)
            << "config " << index
            << ": overlay re-check count depends on worker count";
      }
    }
  }

  // Sharded scatter/gather leg (docs/SHARDING.md): the same fault config
  // through 1..4 shards. The contract extends across shard counts: an ok
  // query returns exactly the clean single-shard rows no matter how the
  // data was partitioned, a failed query reports a storage fault, and
  // nothing observable depends on the worker count. (Any bad_pages target
  // the base file, so with > 1 shard they go dormant — the probabilistic
  // fault processes still run against every shard file.)
  ShardPlanOptions plan;
  plan.num_shards = 1 + static_cast<int>(rng.Uniform(4));
  plan.shard_by =
      rng.Bernoulli(0.5) ? ShardBy::kZOrderRange : ShardBy::kHash;
  auto sharded = ShardedDataset::Partition(*prepared, plan);
  NMRS_CHECK(sharded.ok()) << sharded.status();

  ShardedBatchResult sharded_ref;
  bool have_sharded_ref = false;
  for (size_t workers : {1u, 4u}) {
    EngineOptions sopts = fopts;
    sopts.num_workers = workers;
    auto batch = ShardedQueryEngine(*sharded, s.space, s.algo, sopts)
                     .RunBatch(s.queries);
    NMRS_CHECK(batch.ok()) << "config " << index
                           << " (shards=" << plan.num_shards
                           << "): " << batch.status();

    if (expect_zero_failures) {
      NMRS_CHECK(batch->ok())
          << "config " << index << " (shards=" << plan.num_shards
          << ", replicas=" << replicas << ", one faulted): failover left "
          << batch->num_failed()
          << " failed queries; first: " << batch->first_error();
    }

    for (size_t i = 0; i < s.queries.size(); ++i) {
      if (batch->statuses[i].ok()) {
        NMRS_CHECK(batch->results[i].rows == clean.results[i].rows)
            << "config " << index << " query " << i << " (shards="
            << plan.num_shards << "): rows depend on the partitioning";
      } else {
        NMRS_CHECK(batch->statuses[i].IsStorageFault())
            << "config " << index << " query " << i
            << ": non-storage failure " << batch->statuses[i];
        NMRS_CHECK(batch->results[i].rows.empty());
      }
    }

    if (!have_sharded_ref) {
      sharded_ref = std::move(*batch);
      have_sharded_ref = true;
    } else {
      for (size_t i = 0; i < s.queries.size(); ++i) {
        NMRS_CHECK(batch->results[i].rows == sharded_ref.results[i].rows);
        NMRS_CHECK(batch->results[i].stats.io ==
                   sharded_ref.results[i].stats.io)
            << "config " << index << " query " << i
            << ": sharded per-query IO depends on worker count";
        NMRS_CHECK(batch->statuses[i].ToString() ==
                   sharded_ref.statuses[i].ToString());
      }
      NMRS_CHECK(batch->total_io == sharded_ref.total_io);
      NMRS_CHECK(batch->total_messages == sharded_ref.total_messages);
      NMRS_CHECK(batch->tasks_retried == sharded_ref.tasks_retried);
    }
  }
}

// Mutable-database fault leg: storage faults injected into the WAL image
// and into the base generation a compaction streams from. Contract: damage
// is always *detected* — a torn WAL tail recovers the durable prefix, any
// earlier WAL damage and any generation-page damage surface as kCorruption
// — and never crashes, never silently yields a wrong generation.
void CheckMutationConfig(int index, uint64_t seed) {
  Rng rng(seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Rng work_rng = rng.Fork();
  Rng fault_rng = rng.Fork();
  const std::vector<size_t> cards = {5, 6, 7};
  Dataset data = GenerateNormal(120 + work_rng.Uniform(80), cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  DatabaseOptions opts;
  const Algorithm algos[] = {Algorithm::kBRS, Algorithm::kSRS,
                             Algorithm::kTRS};
  opts.algo = algos[work_rng.Uniform(3)];
  opts.prepare.checksum_pages = true;  // damage must be detectable
  auto db = Database::Open(data, space, opts);
  NMRS_CHECK(db.ok());

  std::vector<uint64_t> live;
  for (uint64_t k = 0; k < data.num_rows(); ++k) live.push_back(k);
  const int kMutations = 30 + static_cast<int>(work_rng.Uniform(30));
  for (int i = 0; i < kMutations; ++i) {
    if (!live.empty() && work_rng.Uniform(3) == 0) {
      const size_t pick = work_rng.Uniform(live.size());
      NMRS_CHECK((*db)->Delete(live[pick]).ok());
      live.erase(live.begin() + pick);
    } else {
      std::vector<ValueId> values(cards.size());
      for (size_t a = 0; a < cards.size(); ++a) {
        values[a] = static_cast<ValueId>(work_rng.Uniform(cards[a]));
      }
      auto key = (*db)->Insert(values);
      NMRS_CHECK(key.ok());
      live.push_back(*key);
    }
  }

  // Clean recovery first: the undamaged WAL image must replay exactly.
  auto clean = Database::Recover(data, space, (*db)->wal_disk(),
                                 (*db)->wal_file(), opts);
  NMRS_CHECK(clean.ok());
  NMRS_CHECK(!clean->torn_tail);
  NMRS_CHECK(clean->db->num_rows() == (*db)->num_rows());

  // WAL fault: corrupt one random byte of one random page of the image.
  {
    const SimulatedDisk& src = (*db)->wal_disk();
    SimulatedDisk image(src.page_size());
    const FileId file = image.CreateFile("chaos.wal");
    const uint64_t pages = src.NumPages((*db)->wal_file());
    NMRS_CHECK(pages > 0);
    for (PageId p = 0; p < pages; ++p) {
      NMRS_CHECK(image.AppendPage(file, *src.PeekPage((*db)->wal_file(), p)).ok());
    }
    const PageId victim = fault_rng.Uniform(pages);
    Page bad = *image.PeekPage(file, victim);
    bad[fault_rng.Uniform(bad.size())] ^=
        static_cast<uint8_t>(1 + fault_rng.Uniform(255));
    NMRS_CHECK(image.WritePage(file, victim, bad).ok());

    auto recovered = Database::Recover(data, space, image, file, opts);
    if (victim + 1 == pages) {
      // Tail damage == crash mid-append: durable prefix survives.
      NMRS_CHECK(recovered.ok());
      NMRS_CHECK(recovered->torn_tail);
      NMRS_CHECK(recovered->records_replayed <= (*db)->stats().wal_records);
      auto snap = recovered->db->Snapshot();
      NMRS_CHECK(snap.ok());
      NMRS_CHECK(snap->num_rows() == recovered->db->num_rows());
    } else {
      NMRS_CHECK(recovered.status().code() == StatusCode::kCorruption);
    }
  }

  // Compaction fault: corrupt one sealed page of the base generation the
  // merge streams from, then force a materialization. It must refuse.
  {
    // Fold the delta first so the pinned snapshot IS the base generation —
    // the file the next compaction/materialization will stream from.
    NMRS_CHECK((*db)->Compact().ok());
    auto pin = (*db)->Snapshot();
    NMRS_CHECK(pin.ok());
    const StoredDataset& stored = pin->prepared().stored;
    const PageId victim = fault_rng.Uniform(stored.num_pages());
    Page bad = *stored.disk()->PeekPage(stored.file(), victim);
    bad[fault_rng.Uniform(bad.size())] ^=
        static_cast<uint8_t>(1 + fault_rng.Uniform(255));
    NMRS_CHECK(stored.disk()->WritePage(stored.file(), victim, bad).ok());

    NMRS_CHECK((*db)->Insert({0, 0, 0}).ok());  // dirty the delta
    const uint64_t gen_before = (*db)->generation();
    const Status compact = (*db)->Compact();
    NMRS_CHECK(compact.code() == StatusCode::kCorruption);
    NMRS_CHECK((*db)->generation() == gen_before);  // no damaged swap
    const auto snap = (*db)->Snapshot();  // materialization refuses too
    NMRS_CHECK(snap.status().code() == StatusCode::kCorruption);
  }
  (void)index;
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) {
  int configs = 500;
  int mutation_configs = 50;
  uint64_t seed = 20260807;
  int min_replicas = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--configs=", 10) == 0) {
      configs = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--mutations=", 12) == 0) {
      mutation_configs = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--min-replicas=", 15) == 0) {
      min_replicas = std::atoi(argv[i] + 15);
      if (min_replicas < 1 || min_replicas > 3) {
        std::fprintf(stderr, "--min-replicas must be in [1, 3]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--configs=N] [--mutations=N] [--seed=S] "
                   "[--min-replicas=R]\n",
                   argv[0]);
      return 2;
    }
  }
  nmrs::Rng master(seed);
  for (int i = 0; i < configs; ++i) {
    nmrs::CheckConfig(i, master.Next64(), min_replicas);
    if ((i + 1) % 50 == 0 || i + 1 == configs) {
      std::printf("chaos soak: %d/%d configs ok\n", i + 1, configs);
      std::fflush(stdout);
    }
  }
  nmrs::Rng mut_master(seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < mutation_configs; ++i) {
    nmrs::CheckMutationConfig(i, mut_master.Next64());
    if ((i + 1) % 25 == 0 || i + 1 == mutation_configs) {
      std::printf("chaos soak: %d/%d mutation configs ok\n", i + 1,
                  mutation_configs);
      std::fflush(stdout);
    }
  }
  std::printf("chaos soak: all %d configs ok\n", configs + mutation_configs);
  return 0;
}
