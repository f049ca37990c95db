#include "core/influence.h"

#include <algorithm>

namespace nmrs {

double InfluenceReport::TopShare(size_t k) const {
  if (total_influence == 0) return 0.0;
  uint64_t top = 0;
  for (size_t i = 0; i < ranking.size() && i < k; ++i) {
    top += ranking[i].influence;
  }
  return static_cast<double>(top) / static_cast<double>(total_influence);
}

double InfluenceReport::Gini() const {
  const size_t n = ranking.size();
  if (n == 0 || total_influence == 0) return 0.0;
  // Ranking is descending; Gini over the ascending sequence.
  double weighted = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = ranking[n - 1 - i];  // ascending
    weighted += static_cast<double>(i + 1) *
                static_cast<double>(entry.influence);
  }
  const double total = static_cast<double>(total_influence);
  const double nd = static_cast<double>(n);
  return (2.0 * weighted) / (nd * total) - (nd + 1.0) / nd;
}

StatusOr<InfluenceReport> AnalyzeInfluence(const PreparedDataset& prepared,
                                           const SimilaritySpace& space,
                                           const std::vector<Object>& queries,
                                           Algorithm algo,
                                           const RSOptions& opts) {
  InfluenceReport report;
  report.ranking.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    NMRS_ASSIGN_OR_RETURN(
        ReverseSkylineResult result,
        RunReverseSkyline(prepared, space, queries[i], algo, opts));
    report.ranking.push_back(
        {i, result.stats.result_size, std::move(result.stats)});
    report.total_influence += report.ranking.back().influence;
  }
  std::sort(report.ranking.begin(), report.ranking.end(),
            [](const InfluenceReport::Entry& a,
               const InfluenceReport::Entry& b) {
              if (a.influence != b.influence) return a.influence > b.influence;
              return a.query_index < b.query_index;
            });
  return report;
}

}  // namespace nmrs
