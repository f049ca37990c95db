// Shared buffer-pool page cache benchmark. Two workloads, one JSON artifact
// (BENCH_cache.json; runs carry a "workload" field):
//
// 1. "batch-trs" — the bench_parallel_queries setup (frozen TRS dataset,
//    a batch of uniform queries fanned out over the engine's worker pool)
//    re-run with the engine-owned BufferPool at 0/5/10/25/50% of the
//    dataset's pages, at 1 and 8 workers. TRS scans the file front to back
//    (phase 1, then again per phase-2 batch), a *cyclic* pattern: an LRU
//    smaller than the file evicts each page just before its next use, so
//    1-worker hit ratios stay ~0 — and no eviction policy can do much
//    better (Belady's bound for a cyclic scan is ~capacity/file_pages,
//    i.e. below 25% hits at a 25% cache). At 8 workers, concurrent
//    queries scanning the same region share misses ("scan sharing"),
//    which is real but scheduling-dependent. Both reported honestly.
//
// 2. "bichromatic-rescan" — the access pattern a buffer pool is actually
//    for: BichromaticBlockRS re-scans the whole competitor file once per
//    candidate window, so a batch of queries reads the competitor pages
//    windows_per_query * num_queries times. A cache that merely holds the
//    (small) competitor file absorbs every rescan after the first — the
//    reduction is deterministic at any worker count, and this is where
//    the >=30%-fewer-charged-reads acceptance criterion is checked.
//
// Reverse-skyline rows must be bit-identical across every cache size and
// worker count in both workloads (second SHAPE-CHECK).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/bichromatic.h"
#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

const std::vector<int> kCachePcts = {0, 5, 10, 25, 50};

/// Workload 1: TRS batch through the engine, cache sizes x workers.
/// Returns whether rows stayed identical across all configurations.
bool RunEngineBatch(const Dataset& data, const SimilaritySpace& space,
                    const std::vector<Object>& queries, JsonWriter* json) {
  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kTRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();
  const ShardedDataset one = ShardedDataset::Partition(*prepared, {}).value();
  const uint64_t dataset_pages = prepared->stored.num_pages();
  std::printf("TRS dataset pages: %llu\n",
              static_cast<unsigned long long>(dataset_pages));

  RSOptions rs;
  rs.memory = MemoryBudget::FromFraction(0.1, dataset_pages);

  Table table({"workers", "cache_pct", "cache_pages", "hit_ratio",
               "charged_reads", "read_reduction", "modeled_makespan_ms",
               "modeled_speedup"});

  std::vector<std::vector<RowId>> reference;
  bool results_identical = true;

  for (size_t workers : {1u, 8u}) {
    uint64_t uncached_reads = 0;
    double uncached_makespan = 0;
    for (int pct : kCachePcts) {
      const uint64_t cache_pages =
          pct == 0 ? 0
                   : MemoryBudget::FromFraction(pct / 100.0, dataset_pages)
                         .pages;
      EngineOptions opts;
      opts.num_workers = workers;
      opts.rs = rs;
      opts.cache_pages = cache_pages;
      ShardedQueryEngine engine(one, space, Algorithm::kTRS, opts);
      auto batch = engine.RunBatch(queries);
      NMRS_CHECK(batch.ok()) << batch.status();

      if (reference.empty()) {
        for (const auto& r : batch->results) reference.push_back(r.rows);
      } else {
        for (size_t i = 0; i < queries.size(); ++i) {
          if (batch->results[i].rows != reference[i]) {
            results_identical = false;
          }
        }
      }

      const uint64_t charged = batch->total_io.TotalReads();
      const double makespan = batch->ModeledMakespanMillis();
      if (pct == 0) {
        uncached_reads = charged;
        uncached_makespan = makespan;
      }
      const double reduction =
          uncached_reads == 0
              ? 0
              : 1.0 - static_cast<double>(charged) /
                          static_cast<double>(uncached_reads);
      const double speedup =
          makespan > 0 ? uncached_makespan / makespan : 0;

      table.AddRow({std::to_string(workers), std::to_string(pct),
                    std::to_string(cache_pages),
                    Fmt(batch->total_io.CacheHitRatio(), 3),
                    std::to_string(charged), Fmt(reduction * 100, 1) + "%",
                    Fmt(makespan), Fmt(speedup, 2)});

      json->BeginRun();
      json->Field("workload", std::string("batch-trs"));
      json->Field("workers", static_cast<uint64_t>(workers));
      json->Field("cache_pct", static_cast<uint64_t>(pct));
      json->Field("cache_pages", cache_pages);
      json->Field("num_rows", data.num_rows());
      json->Field("num_queries", static_cast<uint64_t>(queries.size()));
      json->Field("dataset_pages", dataset_pages);
      json->Field("charged_reads", charged);
      json->Field("read_reduction_vs_nocache", reduction);
      json->Field("modeled_makespan_millis", makespan);
      json->Field("modeled_speedup_vs_nocache", speedup);
      json->Field("wall_millis", batch->wall_millis);
      EmitIoFields(json, batch->total_io);
    }
  }
  table.Print();
  return results_identical;
}

struct RescanOutcome {
  bool results_identical = true;
  double reduction_at_25 = 0;
};

/// Workload 2: bichromatic block RS, one shared pool across a sequential
/// batch of queries. Every query re-scans the competitor file once per
/// candidate window; the competitor file fits in the 25% cache, so after
/// the first scan those reads are hits. Deterministic (single reader).
RescanOutcome RunBichromaticRescan(const Dataset& cand_data,
                                   const Dataset& comp_data,
                                   const SimilaritySpace& space,
                                   const std::vector<Object>& queries,
                                   JsonWriter* json) {
  SimulatedDisk disk;
  // kBRS keeps the input order: plain serialization, no sort.
  auto cands =
      PrepareDataset(&disk, cand_data, Algorithm::kBRS, {}, "candidates");
  NMRS_CHECK(cands.ok()) << cands.status();
  auto comps =
      PrepareDataset(&disk, comp_data, Algorithm::kBRS, {}, "competitors");
  NMRS_CHECK(comps.ok()) << comps.status();
  const uint64_t total_pages =
      cands->stored.num_pages() + comps->stored.num_pages();
  std::printf("bichromatic pages: %llu candidates + %llu competitors\n",
              static_cast<unsigned long long>(cands->stored.num_pages()),
              static_cast<unsigned long long>(comps->stored.num_pages()));

  RSOptions base_opts;
  base_opts.memory = MemoryBudget::FromFraction(0.1, total_pages);

  Table table({"cache_pct", "cache_pages", "hit_ratio", "charged_reads",
               "read_reduction", "modeled_ms", "modeled_speedup"});

  RescanOutcome out;
  std::vector<std::vector<RowId>> reference;
  uint64_t uncached_reads = 0;
  double uncached_ms = 0;

  for (int pct : kCachePcts) {
    const uint64_t cache_pages =
        pct == 0
            ? 0
            : MemoryBudget::FromFraction(pct / 100.0, total_pages).pages;
    // Pool constructed after both files exist, shared by the whole batch —
    // competitor pages stay hot across queries, not just across windows.
    std::unique_ptr<BufferPool> pool;
    if (cache_pages > 0) {
      pool = std::make_unique<BufferPool>(
          &disk, BufferPoolOptions::FromBudget(MemoryBudget{cache_pages}));
    }
    RSOptions opts = base_opts;
    opts.buffer_pool = pool.get();

    IoStats total;
    double modeled_ms = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto r = BichromaticBlockRS(cands->stored, comps->stored, space,
                                  queries[qi], opts);
      NMRS_CHECK(r.ok()) << r.status();
      total += r->stats.io;
      modeled_ms += r->stats.ResponseMillis();
      if (pct == 0) {
        reference.push_back(r->rows);
      } else if (r->rows != reference[qi]) {
        out.results_identical = false;
      }
    }

    const uint64_t charged = total.TotalReads();
    if (pct == 0) {
      uncached_reads = charged;
      uncached_ms = modeled_ms;
    }
    const double reduction =
        uncached_reads == 0
            ? 0
            : 1.0 - static_cast<double>(charged) /
                        static_cast<double>(uncached_reads);
    const double speedup = modeled_ms > 0 ? uncached_ms / modeled_ms : 0;
    if (pct == 25) out.reduction_at_25 = reduction;

    table.AddRow({std::to_string(pct), std::to_string(cache_pages),
                  Fmt(total.CacheHitRatio(), 3), std::to_string(charged),
                  Fmt(reduction * 100, 1) + "%", Fmt(modeled_ms),
                  Fmt(speedup, 2)});

    json->BeginRun();
    json->Field("workload", std::string("bichromatic-rescan"));
    json->Field("workers", static_cast<uint64_t>(1));
    json->Field("cache_pct", static_cast<uint64_t>(pct));
    json->Field("cache_pages", cache_pages);
    json->Field("num_rows", cand_data.num_rows());
    json->Field("num_queries", static_cast<uint64_t>(queries.size()));
    json->Field("dataset_pages", total_pages);
    json->Field("charged_reads", charged);
    json->Field("read_reduction_vs_nocache", reduction);
    json->Field("modeled_makespan_millis", modeled_ms);
    json->Field("modeled_speedup_vs_nocache", speedup);
    EmitIoFields(json, total);
  }
  table.Print();
  return out;
}

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  const uint64_t rows = args.Rows(50000);
  const size_t num_queries = args.quick ? 16 : 64;

  Banner("Shared page cache: batch workload at varying cache sizes");
  std::printf("dataset: %llu normal-distributed objects, batch of %zu "
              "queries\n",
              static_cast<unsigned long long>(rows), num_queries);

  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards = {8, 8, 8, 8};
  Dataset data = GenerateNormal(rows, cards, data_rng);
  SimilaritySpace space;
  for (size_t card : cards) {
    space.AddCategorical(MakeRandomMatrix(card, space_rng));
  }
  std::vector<Object> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(SampleUniformQuery(data, rng));
  }

  JsonWriter json("cache");

  Banner("Workload 1: TRS engine batch (cyclic scans; see header comment)");
  const bool trs_identical = RunEngineBatch(data, space, queries, &json);

  Banner("Workload 2: bichromatic repeated rescans (cache-friendly)");
  // Competitor set ~1/8 of the candidates: small enough that the 25% cache
  // holds it, large enough that rescans dominate the uncached IO.
  Rng comp_rng = rng.Fork();
  Dataset competitors = GenerateNormal(rows / 8, cards, comp_rng);
  const RescanOutcome rescan =
      RunBichromaticRescan(data, competitors, space, queries, &json);

  ShapeCheck("cache-results-identical",
             trs_identical && rescan.results_identical,
             "reverse-skyline rows identical across all cache sizes and "
             "worker counts in both workloads");
  ShapeCheck("cache-25pct-cuts-30pct-of-reads",
             rescan.reduction_at_25 >= 0.30,
             "25% cache removes " + Fmt(rescan.reduction_at_25 * 100, 1) +
                 "% of charged page reads on the repeated-rescan batch "
                 "(need >= 30%)");

  const char* out = "BENCH_cache.json";
  if (json.WriteFile(out)) std::printf("wrote %s\n", out);
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
