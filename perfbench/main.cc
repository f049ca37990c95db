// nmrs Database benchmark: command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --describe
//
// Prints a table of every metric with its unit and sample count, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. --describe prints the workload and metric names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "metrics.h"

namespace {

void PrintNames(const char* key, const perfbench::MetricDef* defs, size_t n) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name, defs[i].unit);
  }
  std::printf("]");
}

void Describe() {
  std::printf("{\"workloads\": [");
  size_t i = 0;
  for (const char* w : perfbench::kWorkloads) {
    std::printf("%s\"%s\"", i++ ? ", " : "", w);
  }
  std::printf("], ");
  PrintNames("end_to_end", perfbench::kEndToEnd,
             std::size(perfbench::kEndToEnd));
  std::printf(", ");
  PrintNames("per_layer", perfbench::kPerLayer,
             std::size(perfbench::kPerLayer));
  std::printf("}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --describe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      Describe();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (!(cfg.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
      if (!cfg.trace && std::strcmp(v, "0") != 0) return Usage();
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (!have_workload) return Usage();

  auto result = perfbench::RunWorkload(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const perfbench::MetricDef* defs =
      cfg.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  const size_t n = cfg.trace ? std::size(perfbench::kPerLayer)
                             : std::size(perfbench::kEndToEnd);
  std::printf("workload=%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed));
  std::printf("%-36s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  std::string json;
  for (size_t i = 0; i < n; ++i) {
    auto it = result->metrics.find(defs[i].name);
    if (it == result->metrics.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   defs[i].name);
      return 1;
    }
    std::printf("%-36s %16.6g %-9s %llu\n", defs[i].name, it->second.value,
                defs[i].unit,
                static_cast<unsigned long long>(it->second.samples));
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, it->second.value, defs[i].unit);
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result->correct ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed), json.c_str());
  return 0;
}
