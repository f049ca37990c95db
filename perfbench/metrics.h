// The benchmark's workload and metric names. BENCHMARK.json at the repo
// root lists the same names; tests/test_bench.py checks that they agree.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr const char* kWorkloads[] = {"scan_srs", "tree_shards",
                                             "tenants", "mixed_rw"};

/// Printed by every untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"answers_per_s", "1/s"},
    {"batch_p50_ms", "ms"},
    {"batch_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// The tail percentile behind batch_p90_ms.
inline constexpr double kTailPct = 90.0;

/// Printed by every traced run (--trace 1). README.md lists the workloads
/// each layer is measured on; elsewhere its metrics read 0 with 0 samples.
inline constexpr MetricDef kPerLayer[] = {
    {"db.snapshot_ms", "ms"},
    {"db.insert_us", "us"},
    {"db.delete_us", "us"},
    {"db.write_p99_us", "us"},
    {"db.compact_ms", "ms"},
    {"db.snapshot_pages_written", "count"},
    {"db.compact_pages_written", "count"},
    {"db.snapshot_reuse_ratio", "ratio"},
    {"db.write_amp", "ratio"},
    {"db.space_amp", "ratio"},
    {"storage.page_read_us", "us"},
    {"storage.pages_read_per_answer", "count"},
    {"storage.pages_written_per_answer", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.cache_evictions_per_answer", "count"},
    {"storage.modeled_io_ms_per_answer", "ms"},
    {"storage.wal_append_us", "us"},
    {"storage.wal_pages_per_record", "ratio"},
    {"data.delta_append_ns", "ns"},
    {"data.columnar_build_us", "us"},
    {"order.prepare_ms", "ms"},
    {"core.query_ms", "ms"},
    {"core.phase1_ms", "ms"},
    {"core.phase2_ms", "ms"},
    {"core.checks_per_answer", "count"},
    {"core.pair_tests_per_answer", "count"},
    {"core.mchecks_per_s", "Mcheck/s"},
    {"core.confirm_ratio", "ratio"},
    {"core.kernel_block_share", "ratio"},
    {"core.kernel_promotions_per_answer", "count"},
    {"core.kernel_mchecks_per_s", "Mcheck/s"},
    {"core.distance_table_us", "us"},
    {"core.exchange_prune_ms", "ms"},
    {"altree.build_ms", "ms"},
    {"altree.build_share", "ratio"},
    {"altree.nodes_per_row", "ratio"},
    {"shard.partition_ms", "ms"},
    {"shard.row_skew", "ratio"},
    {"shard.net_messages_per_query", "count"},
    {"shard.net_bytes_per_query", "B"},
    {"shard.modeled_net_ms_per_query", "ms"},
    {"exec.batch_ms", "ms"},
    {"exec.worker_busy_frac", "ratio"},
    {"exec.straggler_ratio", "ratio"},
    {"exec.overlay_classify_ms", "ms"},
    {"exec.overlay_recheck_ms", "ms"},
    {"exec.sensitive_fraction", "ratio"},
    {"exec.recheck_checks_per_answer", "count"},
    {"sim.overlay_patch_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
