// Sharded scatter/gather throughput (docs/SHARDING.md): one frozen
// PreparedDataset partitioned into 1..4 shards, a scan-heavy BRS batch run
// through ShardedQueryEngine at each shard count. Each shard models one
// machine with --workers pool workers over private DiskViews, so the
// modeled makespan is the busiest (shard, worker) lane plus the exchange's
// modeled network cost — the scatter phases overlap across shards, the
// pruner exchange is the serialized coordinator tax. Result rows are
// checked bit-identical across every shard count and both partitioners
// (the exchange's correctness contract), and CI gates on the 4-shard
// modeled speedup (tools/check_shard_gate.py). Emits BENCH_shards.json.
//
// Extra flags on top of bench_util's: none. The workload is deliberately
// IO-dominated (wide rows, small memory budget) so the modeled speedup
// reflects the sharded scan, not host compute noise.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "data/generators.h"
#include "exec/sharded_engine.h"
#include "sim/dissimilarity_matrix.h"

namespace nmrs {
namespace bench {
namespace {

void Run(int argc, char** argv) {
  Args args = Args::Parse(argc, argv, 1.0);
  const uint64_t rows = args.Rows(100000);
  const size_t num_queries = args.quick ? 12 : 48;
  constexpr size_t kWorkers = 4;

  Banner("Sharded scatter/gather: modeled speedup vs shard count");
  std::printf("dataset: %llu normal-distributed objects over 4 attributes, "
              "batch of %zu BRS queries, %zu workers per shard\n",
              static_cast<unsigned long long>(rows), num_queries, kWorkers);

  Rng rng(args.seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  const std::vector<size_t> cards(4, 12);
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

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, data, Algorithm::kBRS);
  NMRS_CHECK(prepared.ok()) << prepared.status();

  Table table({"shards", "by", "wall_ms", "modeled_makespan_ms",
               "exchange_ms", "modeled_qps", "speedup_vs_1"});
  JsonWriter json("shards");

  std::vector<std::vector<RowId>> reference_rows;
  double base_makespan = 0;
  double speedup_at_4 = 0;
  bool identical_everywhere = true;

  auto run_point = [&](int shards, ShardBy by) {
    ShardPlanOptions plan;
    plan.num_shards = shards;
    plan.shard_by = by;
    auto sharded = ShardedDataset::Partition(*prepared, plan);
    NMRS_CHECK(sharded.ok()) << sharded.status();

    EngineOptions opts;
    opts.num_workers = kWorkers;
    opts.rs.memory =
        MemoryBudget::FromFraction(0.05, prepared->stored.num_pages());
    // Every shard is one machine with a fixed-size page cache — a quarter
    // of the base dataset plus slack. One machine thrashes scanning the
    // whole file; four machines each hold their shard resident after the
    // first scan. Aggregate cache growing with the fleet is exactly the
    // scan-heavy scale-out win the gate checks.
    opts.cache_pages = prepared->stored.num_pages() / 4 + 2;
    ShardedQueryEngine engine(*sharded, space, Algorithm::kBRS, opts);
    auto batch = engine.RunBatch(queries);
    NMRS_CHECK(batch.ok()) << batch.status();
    NMRS_CHECK(batch->ok()) << batch->first_error();

    bool identical = true;
    if (reference_rows.empty()) {
      for (const auto& r : batch->results) reference_rows.push_back(r.rows);
    } else {
      for (size_t i = 0; i < batch->results.size(); ++i) {
        if (batch->results[i].rows != reference_rows[i]) identical = false;
      }
    }
    identical_everywhere = identical_everywhere && identical;

    const double makespan = batch->ModeledMakespanMillis();
    if (shards == 1) base_makespan = makespan;
    const double speedup = makespan > 0 ? base_makespan / makespan : 0;
    if (shards == 4 && by == ShardBy::kZOrderRange) speedup_at_4 = speedup;

    table.AddRow({std::to_string(shards), std::string(ShardByName(by)),
                  Fmt(batch->wall_millis), Fmt(makespan),
                  Fmt(batch->ExchangeModeledMillis(), 2),
                  Fmt(batch->ModeledQps(), 2), Fmt(speedup, 2)});

    json.BeginRun();
    json.Field("shards", static_cast<uint64_t>(shards));
    json.Field("shard_by", std::string(ShardByName(by)));
    json.Field("workers", static_cast<uint64_t>(kWorkers));
    json.Field("num_rows", rows);
    json.Field("num_queries", static_cast<uint64_t>(num_queries));
    json.Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
    json.Field("partition_millis", sharded->partition_millis());
    json.Field("wall_millis", batch->wall_millis);
    json.Field("modeled_makespan_millis", makespan);
    json.Field("queries_per_sec", batch->ModeledQps());
    json.Field("speedup_vs_1_shard", speedup);
    EmitIoFields(&json, batch->total_io);
    EmitMessageFields(&json, batch->total_messages, batch->net);
  };

  for (int shards = 1; shards <= 4; ++shards) {
    run_point(shards, ShardBy::kZOrderRange);
  }
  // Hash partitioning at the widest fan-out: same rows, its own exchange
  // profile (uniform shards ship more candidates than Z-order-local ones).
  run_point(4, ShardBy::kHash);

  table.Print();

  ShapeCheck("shard-rows-bit-identical", identical_everywhere,
             "result rows identical across shard counts and partitioners");
  ShapeCheck("shard-modeled-speedup", speedup_at_4 >= 2.0,
             "modeled makespan speedup at 4 z-order shards = " +
                 Fmt(speedup_at_4, 2) + "x (want >= 2.0x)");

  json.WriteFile("BENCH_shards.json");
}

}  // namespace
}  // namespace bench
}  // namespace nmrs

int main(int argc, char** argv) {
  nmrs::bench::Run(argc, argv);
  return 0;
}
