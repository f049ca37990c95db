// Tests of the benchmark's span self-time arithmetic and tail-percentile
// rule. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Span;

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void LeafSelfTimeIsItsDuration() {
  auto self = perfbench::SelfTimesNs({MakeSpan(1, 0, 10, 25)});
  EXPECT(self.size() == 1 && self[0] == 15);
}

void NestedChildrenAreSubtractedOneLevel() {
  // root [0,100) > child [10,60) > grandchild [20,30)
  auto self = perfbench::SelfTimesNs({MakeSpan(1, 0, 0, 100),
                                      MakeSpan(2, 1, 10, 60),
                                      MakeSpan(3, 2, 20, 30)});
  EXPECT(self[0] == 50);  // only the direct child counts against the root
  EXPECT(self[1] == 40);
  EXPECT(self[2] == 10);
}

void OverlappingChildrenCountOnce() {
  // Children [10,40) and [30,50) overlap on [30,40): union covers 40.
  auto self = perfbench::SelfTimesNs({MakeSpan(1, 0, 0, 100),
                                      MakeSpan(2, 1, 10, 40),
                                      MakeSpan(3, 1, 30, 50),
                                      MakeSpan(4, 1, 70, 80)});
  EXPECT(self[0] == 100 - 40 - 10);
}

void ContainedAndDisjointChildren() {
  // [10,90) contains [20,30); [95,100) is separate.
  auto self = perfbench::SelfTimesNs({MakeSpan(1, 0, 0, 100),
                                      MakeSpan(2, 1, 20, 30),
                                      MakeSpan(3, 1, 10, 90),
                                      MakeSpan(4, 1, 95, 100)});
  EXPECT(self[0] == 100 - 80 - 5);
}

void ChildOutsideParentIsClipped() {
  // A child sticking out of its parent only covers the overlapping part.
  auto self = perfbench::SelfTimesNs({MakeSpan(1, 0, 50, 100),
                                      MakeSpan(2, 1, 40, 60),
                                      MakeSpan(3, 1, 90, 120),
                                      MakeSpan(4, 1, 0, 10)});
  EXPECT(self[0] == 50 - 10 - 10);
}

void TracerRecordsParentsAndRequests() {
  perfbench::Tracer tr(true);
  tr.BeginRequest();
  {
    perfbench::ScopedSpan root(&tr, "root");
    { perfbench::ScopedSpan a(&tr, "a"); }
    { perfbench::ScopedSpan b(&tr, "b"); }
  }
  tr.BeginRequest();
  { perfbench::ScopedSpan c(&tr, "c"); }
  const auto& s = tr.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[0].parent == 0 && s[1].parent == s[0].id && s[2].parent == s[0].id);
  EXPECT(s[3].parent == 0);
  EXPECT(s[0].request == s[1].request && s[3].request != s[0].request);
  for (const Span& sp : s) EXPECT(sp.end_ns >= sp.start_ns);
  auto self = perfbench::SelfTimesNs(s);
  EXPECT(self[0] <= s[0].end_ns - s[0].start_ns);
  EXPECT(tr.SelfMillis("a").size() == 1);

  perfbench::Tracer off(false);
  { perfbench::ScopedSpan x(&off, "x"); }
  EXPECT(off.spans().empty());
}

void TailRuleNeedsTenSamplesBeyond() {
  EXPECT(perfbench::MinSamplesForTail(90) == 100);
  EXPECT(perfbench::MinSamplesForTail(95) == 200);
  EXPECT(perfbench::MinSamplesForTail(99) == 1000);
  EXPECT(perfbench::MinSamplesForTail(50) == 20);

  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  // 99 samples leave fewer than 10 beyond p90: the run must be rejected.
  EXPECT(!perfbench::TailPercentile(v, 90).has_value());
  v.push_back(100);
  auto p90 = perfbench::TailPercentile(v, 90);
  EXPECT(p90.has_value() && *p90 == 90);
  // Exactly ten samples (91..100) lie beyond the reported value.
  int beyond = 0;
  for (double x : v) beyond += x > *p90 ? 1 : 0;
  EXPECT(beyond == 10);
  EXPECT(!perfbench::TailPercentile(v, 95).has_value());
}

void MedianAndPercentile() {
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 2, 3}) == 2.5);
  EXPECT(perfbench::Percentile({5, 1, 4, 2, 3}, 50) == 3);
  EXPECT(perfbench::Percentile({5, 1, 4, 2, 3}, 100) == 5);
}

}  // namespace

int main() {
  LeafSelfTimeIsItsDuration();
  NestedChildrenAreSubtractedOneLevel();
  OverlappingChildrenCountOnce();
  ContainedAndDisjointChildren();
  ChildOutsideParentIsClipped();
  TracerRecordsParentsAndRequests();
  TailRuleNeedsTenSamplesBeyond();
  MedianAndPercentile();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
