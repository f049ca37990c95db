#ifndef NMRS_STORAGE_FAULT_INJECTION_H_
#define NMRS_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/disk.h"

namespace nmrs {

/// Deterministic storage fault injection (docs/ROBUSTNESS.md).
///
/// The design goal is bit-identical reproduction: whether a given read
/// attempt faults is a *pure function* of (seed, stream, file, page,
/// attempt). No global RNG state is consumed, so the fault pattern is
/// independent of thread scheduling, query interleaving and worker count.
/// `stream` partitions the fault space between independent consumers — the
/// batch engine uses the query index, so query 7 sees the same faults
/// whether the batch runs on 1 worker or 8.

/// What fault configuration to apply to a disk. Default-constructed ==
/// faults off (enabled() is false and FaultyDisk becomes pass-through).
struct FaultConfig {
  /// Seed of the fault pattern. Two runs with equal configs see equal
  /// faults.
  uint64_t seed = 0;

  /// Probability that any single read *attempt* fails transiently with
  /// kUnavailable (independent per attempt, so a retry may succeed).
  double transient_read_p = 0.0;

  /// Probability that a successful read returns silently corrupted bytes
  /// (one byte XOR-flipped). Only checksums can catch this.
  double corrupt_p = 0.0;

  /// Probability that any given (file, page) is permanently unreadable —
  /// drawn once per page as a pure function of (seed, file, page), *not* of
  /// stream or attempt, so it models bad sectors: the same pages are gone
  /// for every query and every retry. Like `bad_pages`, every read attempt
  /// fails with kDataLoss.
  double data_loss_p = 0.0;

  /// Pages that are permanently unreadable: every attempt fails with
  /// kDataLoss. Retries never help; PagedReader quarantines these.
  std::set<std::pair<FileId, PageId>> bad_pages;

  bool enabled() const {
    return transient_read_p > 0.0 || corrupt_p > 0.0 || data_loss_p > 0.0 ||
           !bad_pages.empty();
  }
};

/// The outcome FaultInjector decides for one read attempt.
struct ReadFault {
  bool transient = false;    // fail this attempt with kUnavailable
  bool corrupt = false;      // flip one byte of the returned page
  uint64_t corrupt_offset_raw = 0;  // reduce mod page size at the flip site
  uint8_t corrupt_xor = 0;          // never 0 when corrupt (a real flip)
};

/// Pure-function fault oracle over a FaultConfig. Stateless and
/// const-thread-safe: any number of threads may query it concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(std::move(config)) {}

  const FaultConfig& config() const { return config_; }

  /// True if (file, page) is permanently bad: either listed in
  /// `bad_pages`, or selected by the `data_loss_p` draw (a pure function of
  /// seed/file/page — independent of stream and attempt, see FaultConfig).
  bool IsBadPage(FileId file, PageId page) const;

  /// Decides the fault outcome for attempt `attempt` (0-based) of reading
  /// (file, page) on fault stream `stream`. Deterministic: equal arguments
  /// and config always produce the same ReadFault.
  ReadFault DecideRead(uint64_t stream, FileId file, PageId page,
                       uint64_t attempt) const;

 private:
  FaultConfig config_;
};

/// How PagedReader responds to transient (kUnavailable) read failures.
/// Backoff is *modeled*, not slept: BackoffMillis sums into
/// QueryStats::modeled_backoff_millis so that retry storms show up in
/// response-time estimates without making tests wall-clock dependent.
struct RetryPolicy {
  /// Total attempts per page read, including the first (so 3 = up to 2
  /// retries). Must be >= 1.
  int max_attempts = 3;

  /// Modeled delay before the first retry, doubled (by default) each
  /// further retry: 2ms, 4ms, 8ms...
  double backoff_millis = 2.0;
  double backoff_multiplier = 2.0;

  /// Modeled delay charged before retry number `retry` (1-based).
  double BackoffMillis(int retry) const {
    double ms = backoff_millis;
    for (int i = 1; i < retry; ++i) ms *= backoff_multiplier;
    return ms;
  }
};

/// Thread-safe record of pages PagedReader has given up on. Purely
/// observational: queries never consult it to change behavior (which would
/// couple queries together and break per-query determinism) — it exists so
/// operators can see *which* pages are gone, not just how many.
class QuarantineLog {
 public:
  /// Records (file, page). Returns true if it was newly quarantined.
  bool Report(FileId file, PageId page);

  /// Snapshot of all quarantined pages, sorted.
  std::vector<std::pair<FileId, PageId>> Pages() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::set<std::pair<FileId, PageId>> pages_;
};

/// Everything a reader needs to know about surviving storage faults, in one
/// struct: checksum verification, the transient-retry budget, where to
/// report pages that are gone for good, and how many storage replicas exist
/// to fail over to. Embedded in RSOptions (and so in EngineOptions) and
/// consumed by MakeReaderOptions, so algorithms, the batch engine and the
/// CLI all speak the same resilience vocabulary. Default-constructed ==
/// everything off: no checksums, 3 transient attempts, no quarantine
/// reporting, a single replica (no failover) — bit-identical to the
/// pre-replica behavior.
struct ResiliencePolicy {
  /// Verify (and for writers, seal) CRC32C page trailers. Readers treat a
  /// mismatch as kCorruption: evict + refetch once, then fail over /
  /// quarantine.
  bool checksum_pages = false;

  /// Transient (kUnavailable) retry budget per page read, per replica.
  RetryPolicy retry;

  /// If set, pages every replica failed on are reported here. Borrowed, not
  /// owned; must outlive the query.
  QuarantineLog* quarantine_log = nullptr;

  /// Number of storage replicas (>= 1). With N > 1 the batch engine builds
  /// a ReplicaSet of N FaultyDisks over the same frozen base files, each
  /// with its own fault seed, and PagedReader fails over page-by-page.
  /// 1 == no failover, byte-identical to the single-disk code path.
  int replicas = 1;

  /// Replica r (r > 0) faults with seed `base_seed + replica_fault_seed_base
  /// + r`; replica 0 keeps the configured seed verbatim so replicas=1 runs
  /// reproduce single-disk fault patterns exactly.
  uint64_t replica_fault_seed_base = 0x7265706Cull;  // "repl"

  /// Rejects configurations the runtime cannot honor instead of silently
  /// bending them: `replicas` must be in [1, IoStats::kMaxReplicas] (the
  /// per-replica read accounting is a fixed-width array, so a larger count
  /// used to be clamped silently — replica 9+ would neither serve reads nor
  /// appear in any counter), and the retry budget must allow at least one
  /// attempt. Callers that accept a policy from outside (the batch engine,
  /// the CLI) validate before running.
  Status Validate() const;
};

/// A SimulatedDisk decorator that injects the faults a FaultInjector
/// decides into reads of a wrapped disk. Writes and structural ops pass
/// straight through; stats and the disk arm live in the wrapped disk so IO
/// accounting is unchanged by wrapping.
///
/// Attempt numbering: the decorator counts ReadPage calls per (file, page)
/// *within this instance*, so retries of the same page advance through the
/// fault sequence while a fresh FaultyDisk (e.g. a re-run of the same
/// query) replays it from attempt 0. The batch engine creates one
/// FaultyDisk per query task over that worker's DiskView, which is what
/// makes fault patterns independent of work-stealing order.
///
/// Thread-compatibility: the attempt map is mutex-guarded, but the
/// intended use is single-owner (one query task), like DiskView.
class FaultyDisk final : public SimulatedDisk {
 public:
  /// All file ids are faultable (standalone use over a private disk).
  static constexpr FileId kNoFaultCeiling = ~FileId{0};

  /// `inner` is borrowed and must outlive the FaultyDisk. `stream`
  /// partitions the fault space (see file comment). Reads of files with id
  /// >= `fault_ceiling` bypass injection entirely: fault decisions key on
  /// the file id, and per-view scratch-file ids are handed out in
  /// execution order — so injecting into scratch reads would make fault
  /// patterns depend on which queries ran earlier on the same worker. The
  /// batch engine passes the frozen base disk's next_file_id() as the
  /// ceiling, which models faults as bad sectors in the (shared, frozen)
  /// dataset region while per-query scratch spills stay clean.
  FaultyDisk(SimulatedDisk* inner, const FaultInjector* injector,
             uint64_t stream, FileId fault_ceiling = kNoFaultCeiling);

  SimulatedDisk* inner() const { return inner_; }
  uint64_t stream() const { return stream_; }

  Status ReadPage(FileId file, PageId page, Page* out) override;

  // Everything else forwards to the wrapped disk unchanged.
  FileId CreateFile(std::string name) override;
  Status DeleteFile(FileId file) override;
  Status TruncateFile(FileId file) override;
  uint64_t NumPages(FileId file) const override;
  bool FileExists(FileId file) const override;
  Status WritePage(FileId file, PageId page, const Page& in) override;
  const IoStats& stats() const override;
  void ResetStats() override;
  void InvalidateArmPosition() override;
  StatusOr<uint64_t> PagesOf(FileId file) const override;
  std::string FileName(FileId file) const override;
  uint64_t TotalPages() const override;

 private:
  struct PairHash {
    size_t operator()(const std::pair<FileId, PageId>& p) const {
      return static_cast<size_t>(p.first) * 0x9E3779B97F4A7C15ull +
             static_cast<size_t>(p.second);
    }
  };

  uint64_t NextAttempt(FileId file, PageId page);

  SimulatedDisk* inner_;
  const FaultInjector* injector_;
  uint64_t stream_;
  FileId fault_ceiling_;

  mutable std::mutex mu_;
  std::unordered_map<std::pair<FileId, PageId>, uint64_t, PairHash> attempts_;
};

}  // namespace nmrs

#endif  // NMRS_STORAGE_FAULT_INJECTION_H_
