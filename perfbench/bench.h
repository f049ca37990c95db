// Workloads of the nmrs Database benchmark (see README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/statusor.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct MetricValue {
  double value = 0;
  uint64_t samples = 0;  // 1 for a value computed once per run
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;  // Database calls made
  uint64_t failed = 0;     // calls that failed or disagreed with the oracle
  std::map<std::string, MetricValue> metrics;
};

/// Generates the workload's inputs from `cfg.seed`, computes the oracle,
/// opens the database and runs the closed loop for `cfg.seconds`. With
/// cfg.trace the run measures an untraced half and a traced half and
/// returns the per-layer metrics; otherwise the end-to-end metrics.
nmrs::StatusOr<RunResult> RunWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
