// Sample statistics used by the benchmark's metrics.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a tail percentile for it to be reported.
inline constexpr size_t kTailSamplesBeyond = 10;

double Median(std::vector<double> v);

/// Nearest-rank percentile `pct` (0 < pct < 100) of `v`; v must be
/// non-empty.
double Percentile(std::vector<double> v, double pct);

/// Fewest samples for which `pct` leaves kTailSamplesBeyond samples above
/// it: ceil(10 / (1 - pct/100)).
size_t MinSamplesForTail(double pct);

/// Percentile `pct` of `v`, or nullopt when `v` has too few samples to put
/// kTailSamplesBeyond of them beyond it.
std::optional<double> TailPercentile(const std::vector<double>& v, double pct);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
