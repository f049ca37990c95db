#ifndef NMRS_STORAGE_BUFFER_POOL_H_
#define NMRS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/disk.h"
#include "storage/memory_budget.h"

namespace nmrs {

/// Cumulative buffer-pool counters. Composes with IoStats: the pool's
/// misses are exactly the page reads it charged to the disk, its hits are
/// page requests the disk never saw. `pinned_peak` is the high-water mark
/// of concurrently pinned frames — the pool's true working-set pressure.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pinned_peak = 0;

  uint64_t Lookups() const { return hits + misses; }
  double HitRatio() const {
    return Lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(Lookups());
  }

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    pinned_peak = pinned_peak > o.pinned_peak ? pinned_peak : o.pinned_peak;
    return *this;
  }

  std::string ToString() const;
};

struct BufferPoolOptions {
  /// Total frames across all shards. Drawn from MemoryBudget: the paper's
  /// memory fraction now *is* the cache size (docs/CACHING.md).
  uint64_t capacity_pages = 64;

  /// Shard count; clamped to [1, capacity_pages] at construction. Eight
  /// matches the query engine's default worker count so workers rarely
  /// contend on the same shard mutex.
  size_t num_shards = 8;

  static BufferPoolOptions FromBudget(const MemoryBudget& budget) {
    BufferPoolOptions o;
    o.capacity_pages = budget.pages;
    return o;
  }
};

/// Sharded LRU page cache over the *frozen base files* of a SimulatedDisk.
///
/// The pool sits between the reverse-skyline algorithms and the simulated
/// disk: reads routed through it (see PagedReader) are served from memory
/// on a hit and fetched — and charged — through the caller's own disk or
/// DiskView on a miss. Pages are keyed by (FileId, PageId) and hashed
/// across `num_shards` independent LRU lists, each behind its own mutex,
/// so all of the batch engine's workers can share one pool without a
/// global lock.
///
/// ## What is cacheable
///
/// Only files that existed on the base disk when the pool was constructed
/// (id < base->next_file_id()) are cached; `Caches()` is the test. Two
/// reasons: (a) those files are frozen by the engine's concurrency
/// contract, so cached copies can never go stale; (b) per-worker DiskView
/// scratch files from *different* views may share FileIds, so caching them
/// would alias distinct data. PagedReader forwards non-cacheable reads
/// straight to the disk.
///
/// ## Accounting
///
/// A miss fetch runs through the `via` disk passed by the caller — a
/// worker's DiskView in the engine — so the existing seq/rand
/// classification and per-view IoStats keep working unchanged; the pool
/// adds hit/miss/eviction counts on top (global `stats()` here, per-query
/// via PagedReader). The shard mutex is held across the miss fetch
/// (single-flight): when several workers want the same absent page, exactly
/// one disk read is charged and the rest hit the freshly loaded frame.
///
/// ## Pinning
///
/// Pin() returns an RAII handle giving stable access to the frame's bytes
/// without copying; pinned frames are skipped by eviction. If every frame
/// of the target shard is pinned, Pin() returns ResourceExhausted — callers
/// see a Status, not a crash — while ReadThrough() (the common path: pin,
/// copy out, unpin) falls back to an uncached read, since its own pins are
/// transient and a concurrent reader racing on a tiny shard must not fail.
class BufferPool {
 public:
  /// Per-call outcome, for per-query attribution by PagedReader.
  struct ReadEvent {
    bool hit = false;
    bool evicted = false;
  };

  /// `base` is the disk whose current files become cacheable; it must
  /// outlive the pool and those files must stay frozen (no WritePage /
  /// TruncateFile / DeleteFile) while the pool is in use.
  BufferPool(const SimulatedDisk* base, BufferPoolOptions opts);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  class PinnedPage;

  /// True if reads of `file` go through the pool (frozen base file).
  bool Caches(FileId file) const { return file < base_limit_; }

  /// Reads (file, page) through the cache into `out`: hit → memory copy,
  /// miss → one charged read via `via` + insert (evicting the shard's LRU
  /// unpinned frame when full). If the target shard is transiently full of
  /// pinned frames (concurrent readers racing on a tiny shard), the read
  /// degrades to a plain uncached read through `via` instead of failing —
  /// counted as a miss, nothing retained. `via` must resolve `file` to the
  /// same bytes as the base disk (it is the base itself or a DiskView over
  /// it).
  Status ReadThrough(SimulatedDisk* via, FileId file, PageId page, Page* out,
                     ReadEvent* ev = nullptr);

  /// Like ReadThrough but keeps the frame pinned and hands out a zero-copy
  /// view of it. The frame cannot be evicted until the handle is destroyed.
  StatusOr<PinnedPage> Pin(SimulatedDisk* via, FileId file, PageId page,
                           ReadEvent* ev = nullptr);

  /// Drops the resident frame for (file, page) if present and unpinned.
  /// Returns true if a frame was dropped. PagedReader uses this when a
  /// cached page fails checksum verification: the stale/corrupt frame is
  /// evicted so the follow-up read refetches from disk instead of serving
  /// the same bad bytes forever. Not counted as an LRU eviction.
  bool Evict(FileId file, PageId page);

  /// Pool-wide cumulative counters (sum over shards). Exact when quiescent,
  /// a consistent lower bound while readers are in flight.
  CacheStats stats() const;

  /// Frames currently resident (<= capacity_pages).
  uint64_t PagesCached() const;

  uint64_t capacity_pages() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t page_size() const { return page_size_; }

 private:
  struct Frame {
    FileId file;
    PageId page;
    Page bytes;
    uint32_t pins = 0;
    Frame(FileId f, PageId p, size_t page_size)
        : file(f), page(p), bytes(page_size) {}
  };

  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. std::list gives stable Frame addresses
    // for pinned handles and O(1) splice-to-front on hit.
    std::list<Frame> lru;
    std::unordered_map<uint64_t, std::list<Frame>::iterator> index;
    uint64_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static uint64_t Key(FileId file, PageId page) {
    // Mix so that consecutive pages of one file spread across shards —
    // a straight scan then touches all shard mutexes round-robin instead
    // of convoying on one.
    uint64_t k = (static_cast<uint64_t>(file) << 48) ^ page;
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return k;
  }

  Shard& ShardFor(uint64_t key) { return shards_[key % shards_.size()]; }

  // Returns the frame for (file, page), loading it via `via` on a miss.
  // Acquires the shard mutex internally and holds it across the miss fetch
  // (single-flight). The returned frame has pins incremented; the caller
  // must UnpinFrame().
  StatusOr<Frame*> PinInternal(SimulatedDisk* via, FileId file, PageId page,
                               ReadEvent* ev);
  void UnpinFrame(Frame* frame);
  void NotePinned();

  const FileId base_limit_;
  const size_t page_size_;
  uint64_t capacity_ = 0;
  std::vector<Shard> shards_;

  std::atomic<uint64_t> pinned_now_{0};
  std::atomic<uint64_t> pinned_peak_{0};
  // ReadThrough calls that found their shard all-pinned and fell back to an
  // uncached read (folded into stats().misses).
  std::atomic<uint64_t> bypass_misses_{0};

  friend class PinnedPage;

 public:
  /// RAII pin handle. Movable, not copyable; unpins on destruction. The
  /// referenced bytes stay valid and immutable for the handle's lifetime.
  class PinnedPage {
   public:
    PinnedPage() = default;
    PinnedPage(PinnedPage&& o) noexcept : pool_(o.pool_), frame_(o.frame_) {
      o.pool_ = nullptr;
      o.frame_ = nullptr;
    }
    PinnedPage& operator=(PinnedPage&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        frame_ = o.frame_;
        o.pool_ = nullptr;
        o.frame_ = nullptr;
      }
      return *this;
    }
    PinnedPage(const PinnedPage&) = delete;
    PinnedPage& operator=(const PinnedPage&) = delete;
    ~PinnedPage() { Release(); }

    bool valid() const { return frame_ != nullptr; }
    const Page& page() const { return frame_->bytes; }
    FileId file() const { return frame_->file; }
    PageId page_id() const { return frame_->page; }

    void Release() {
      if (pool_ != nullptr && frame_ != nullptr) pool_->UnpinFrame(frame_);
      pool_ = nullptr;
      frame_ = nullptr;
    }

   private:
    friend class BufferPool;
    PinnedPage(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
    BufferPool* pool_ = nullptr;
    Frame* frame_ = nullptr;
  };
};

}  // namespace nmrs

#endif  // NMRS_STORAGE_BUFFER_POOL_H_
