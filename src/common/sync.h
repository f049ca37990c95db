#ifndef NMRS_COMMON_SYNC_H_
#define NMRS_COMMON_SYNC_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

namespace nmrs {

/// Minimal asynchronous-execution interface. It lives in common/ so that
/// core/ algorithms can borrow threads from an executor (the work-stealing
/// pool in exec/) without depending on the exec/ library — the dependency
/// arrow stays exec -> core -> common.
class TaskExecutor {
 public:
  virtual ~TaskExecutor() = default;

  /// Schedules `fn` to run asynchronously, possibly concurrently with the
  /// caller. Every scheduled task is eventually run exactly once.
  virtual void Schedule(std::function<void()> fn) = 0;
};

/// Counts outstanding work items: Add() before handing work out, Done() when
/// an item finishes, Wait() blocks until the count returns to zero.
class WaitGroup {
 public:
  void Add(int n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
};

/// Runs fn(chunk) for every chunk in [0, num_chunks), using up to
/// `num_threads` threads *including the calling thread*. Helper threads are
/// scheduled on `exec` when non-null and are otherwise spawned as temporary
/// std::threads. Chunks are claimed from a shared atomic counter and the
/// wait is on chunk completions, not on helper tasks, so the call is
/// deadlock-free even when issued from inside a pool worker whose siblings
/// are all equally blocked: the caller drains chunks itself and helpers
/// that never get a thread are simply not waited for. Returns once every
/// chunk has finished.
void ParallelChunks(TaskExecutor* exec, int num_threads, size_t num_chunks,
                    const std::function<void(size_t)>& fn);

/// Chunk count for splitting n work items across `num_threads` threads:
/// 1 (run everything on the caller) when num_threads <= 1, otherwise
/// `per_thread` chunks per thread — more chunks than threads let the
/// work-stealing pool balance uneven item costs — capped at n (but >= 1).
inline size_t NumChunks(int num_threads, size_t n, size_t per_thread) {
  if (num_threads <= 1) return 1;
  return std::max<size_t>(
      1, std::min(n, static_cast<size_t>(num_threads) * per_thread));
}

/// Splits [0, n) into `chunks` half-open ranges of near-equal size;
/// chunk c is [ChunkBegin(n, chunks, c), ChunkBegin(n, chunks, c + 1)).
inline size_t ChunkBegin(size_t n, size_t chunks, size_t c) {
  return n * c / chunks;
}

}  // namespace nmrs

#endif  // NMRS_COMMON_SYNC_H_
