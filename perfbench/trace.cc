#include "trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

uint64_t Tracer::Begin(const std::string& name) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request_;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = NowNs();
  spans_[id - 1].end_ns = now;
  if (!open_.empty() && spans_[open_.back()].id == id) open_.pop_back();
}

std::vector<double> Tracer::SelfMillis(const std::string& name) const {
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i] / 1e6);
  }
  return out;
}

}  // namespace perfbench
