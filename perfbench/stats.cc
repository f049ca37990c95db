#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

size_t MinSamplesForTail(double pct) {
  // Computed in integer hundredths so 90 -> exactly 100, 95 -> 200.
  const long long above = 10000 - std::llround(pct * 100.0);
  const long long need = static_cast<long long>(kTailSamplesBeyond) * 10000;
  return static_cast<size_t>((need + above - 1) / above);
}

std::optional<double> TailPercentile(const std::vector<double>& v,
                                     double pct) {
  if (v.size() < MinSamplesForTail(pct)) return std::nullopt;
  return Percentile(v, pct);
}

}  // namespace perfbench
