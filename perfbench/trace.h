// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded only around calls the benchmark itself makes into a
// module's public functions; nothing inside the library is instrumented.
// Spans stay in memory until the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root of its request
  uint64_t request = 0;  // shared by every span of one request
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span, in the order given: its duration minus the
/// part of its interval covered by the union of its children's intervals
/// (children may overlap each other or stick out of the parent; only the
/// covered part of the parent's own interval is subtracted).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts a new request; spans begun until the next call share its id.
  void BeginRequest() { ++request_; }

  /// Opens a span whose parent is the innermost open span.
  uint64_t Begin(const std::string& name);
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self times (ms) of every span with this name.
  std::vector<double> SelfMillis(const std::string& name) const;

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : t_(t->enabled() ? t : nullptr), id_(t_ ? t_->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  uint64_t id_;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
