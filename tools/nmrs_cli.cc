// nmrs command-line driver: generate synthetic datasets, run reverse
// skyline queries over CSV data with CSV similarity matrices, and compare
// algorithms — without writing C++.
//
//   nmrs_cli generate --rows=N --cards=5,50,7 [--dist=normal|uniform|zipf]
//            --out=data.csv [--matrices=prefix] [--seed=S]
//       Generates a dataset (and one random dissimilarity matrix CSV per
//       attribute as <prefix><attr>.csv when --matrices is given).
//
//   nmrs_cli query --data=data.csv --matrices=prefix --query=1,2,3
//            [--algo=trs|srs|brs|naive|tsrs|ttrs] [--mem=0.1]
//            [--attrs=0,2] [--kernels] [--promote-rows=N] [--seed=S]
//            [--shards=N] [--shard-by=zorder|hash]
//            [common fault flags]
//       Runs a reverse-skyline query and prints the result rows + stats.
//       --kernels turns on the block dominance kernels (docs/KERNELS.md)
//       and prints which lane evaluators runtime dispatch picked
//       (avx2/scalar) plus the adaptive-dispatch telemetry (candidates
//       promoted to block evaluation, rows evaluated by the scalar probe
//       vs. block windows); --promote-rows=N sets how many rows a
//       candidate must survive before promotion (0 = promote immediately,
//       the pre-adaptive behavior). The result rows are identical either
//       way. The
//       common fault flags (see batch) work here too: with faults or
//       --replicas=N > 1 the query runs against replica 0's faulty view
//       with the remaining replicas attached for page-granular failover,
//       exactly as the batch engine wires each query.
//
//   nmrs_cli compare --data=data.csv --matrices=prefix --query=1,2,3
//       Runs BRS, SRS and TRS on the same query and prints a comparison.
//
//   nmrs_cli skyline --data=data.csv --matrices=prefix --query=1,2,3
//       Prints the dynamic skyline of the database w.r.t. the reference
//       object (BNL; the skyline the reverse skyline is defined through).
//
//   nmrs_cli influence --data=data.csv --matrices=prefix --queries=K
//            [--seed=S]
//       Samples K query objects, ranks them by |RS(Q)| and prints the
//       concentration diagnostics (top-3 share, Gini).
//
//   nmrs_cli batch --data=data.csv --matrices=prefix --queries=K
//            [--workers=W] [--threads=T] [--algo=trs|srs|brs] [--mem=0.1]
//            [--cache-pages=N | --cache-pct=P] [--kernels]
//            [--promote-rows=N] [--shared-scan] [--shared-group=G]
//            [--seed=S]
//            [--checksum] [--transient-p=P] [--corrupt-p=P]
//            [--data-loss-p=P] [--bad-pages=f:p,f:p,...] [--fault-seed=S]
//            [--retries=N] [--max-query-retries=N] [--fail-fast]
//            [--replicas=N] [--replica-seed-base=S]
//            [--bad-replicas=r:loss_p,...]
//            [--shards=N] [--shard-by=zorder|hash]
//       Samples K query objects and runs them as one batch on the parallel
//       query engine (W pool workers, each query optionally using T
//       intra-query threads), printing per-query results and the modeled
//       batch throughput. --cache-pages / --cache-pct attach a shared
//       buffer-pool page cache of N pages (or P% of the dataset's pages)
//       to the engine and print its CacheStats summary (docs/CACHING.md).
//       The fault flags (docs/ROBUSTNESS.md) inject deterministic storage
//       faults: --transient-p / --corrupt-p / --data-loss-p / --bad-pages
//       configure the FaultConfig (seeded by --fault-seed), --checksum
//       seals dataset pages with CRC-32C and verifies them on read,
//       --retries sets the per-page transient retry budget,
//       --max-query-retries re-runs failed queries on a clean view, and
//       --fail-fast reports only the first failed query's error instead of
//       the per-query results.
//       --replicas=N models N storage replicas with independent fault
//       streams (ResiliencePolicy, seed base --replica-seed-base) and
//       fails reads over page by page; --bad-replicas=r:loss_p restricts
//       the faults to the listed replicas (replica r gets the shared
//       FaultConfig with data_loss_p forced to loss_p, everyone else runs
//       clean). Failed queries are reported individually; the exit code
//       is non-zero iff some query failed. --shared-scan runs groups of
//       --shared-group=G consecutive BRS/SRS queries through one shared
//       phase-1 pass over the dataset (docs/KERNELS.md) — bit-identical
//       per-query results, the scan's IO charged once per group — and
//       prints the shared-scan summary; it silently falls back to
//       per-query execution under fault injection, replica failover, or
//       other algorithms.
//
//       --shards=N (query and batch modes) partitions the prepared dataset
//       into N shards (--shard-by=zorder Z-order ranges, the default, or
//       --shard-by=hash) and runs the scatter/gather executor with the
//       cross-shard pruner exchange (docs/SHARDING.md) instead of the
//       single-shard engine — result rows are bit-identical either way.
//       Per-query output adds the per-shard candidate counts and the
//       exchange's message/byte/round ledger; the batch summary adds the
//       total MessageStats and the modeled network cost.
//
//       Overlay flags (docs/OVERLAYS.md): --overlay-users=K answers every
//       batch query for K synthetic per-user preference overlays (sparse
//       random deltas over the base matrices, each touching
//       --overlay-touch-pct=P percent of the off-diagonal entries, seeded
//       by --overlay-seed=S) through the incremental overlay executor —
//       one base run plus re-pruning of the overlay-sensitive rows, rows
//       bit-identical to rebuilding each user's patched space.
//       --overlay-file=path loads one overlay from a serialized delta file
//       ("attr from to d" lines) as the first user; in query mode the same
//       flag evaluates the single query under that user's overlay.
//
//   nmrs_cli serve --data=data.csv --matrices=prefix --script=workload.txt
//            [--algo=...] [--workers=W] [--shards=N] [--shard-by=...]
//            [--mem=0.1] [--threads=T] [--kernels] [--checksum]
//            [--cache-pages=N] [--max-delta=N] [--seed=S]
//       Online serving (docs/MUTABILITY.md): opens the dataset as a
//       mutable nmrs::Database and applies the scripted workload of
//       interleaved insert / delete / query / batch / compact / snapshot /
//       stats lines (grammar at CmdServe). Every query runs over an
//       epoch-pinned snapshot that is bit-identical to re-preparing the
//       mutated dataset from scratch; --max-delta caps the delta segment
//       (mutations then fail with the back-pressure status until a
//       `compact` line runs).
//
//       `query` and `batch` also route through the Database front door
//       (over a read-only generation-0 snapshot); their flags and output
//       are unchanged from the historical direct-engine wiring.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "nmrs.h"
#include "storage/replica_set.h"

namespace nmrs {
namespace {

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Strict non-negative integer flag parse. strtoull silently wraps "-1" to
// 18446744073709551615 (so e.g. --promote-rows=-1 used to mean "promote
// after 4 billion rows"); this rejects signs, junk and overflow instead.
StatusOr<uint64_t> ParseCount(const Flags& flags, const std::string& key,
                              uint64_t fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& s = it->second;
  if (s.empty()) return Status::InvalidArgument("--" + key + " needs a value");
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          "--" + key + " must be a non-negative integer, got '" + s + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) {
    return Status::InvalidArgument("--" + key + " value '" + s +
                                   "' is out of range");
  }
  return v;
}

std::vector<uint64_t> ParseUintList(const std::string& csv) {
  std::vector<uint64_t> out;
  for (const std::string& tok : StrSplit(csv, ',')) {
    if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
  }
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

StatusOr<SimilaritySpace> LoadSpace(const Schema& schema,
                                    const std::string& prefix) {
  SimilaritySpace space;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).is_numeric) {
      space.AddNumeric(NumericDissimilarity());
      continue;
    }
    const std::string path = prefix + std::to_string(a) + ".csv";
    NMRS_ASSIGN_OR_RETURN(DissimilarityMatrix m, ReadMatrixCsvFile(path));
    if (m.cardinality() != schema.attribute(a).cardinality) {
      return Status::InvalidArgument(
          path + ": cardinality " + std::to_string(m.cardinality()) +
          " does not match attribute's " +
          std::to_string(schema.attribute(a).cardinality));
    }
    space.AddCategorical(std::move(m));
  }
  return space;
}

// Reads a serialized MatrixOverlay ("attr from to d" lines, '#' comments)
// and validates every entry against `base` (docs/OVERLAYS.md).
StatusOr<MatrixOverlay> LoadOverlayFile(const SimilaritySpace& base,
                                        const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto overlay = MatrixOverlay::Parse(base, text.str());
  if (!overlay.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   overlay.status().ToString());
  }
  return overlay;
}

// Parses a "v1,v2,..." row literal against `schema` (numeric attributes
// take doubles, categorical ones in-domain value ids). Shared by query
// flags and the serve script's insert/query lines.
Status ParseRowSpec(const Schema& schema, const std::string& csv,
                    std::vector<ValueId>* values,
                    std::vector<double>* numerics) {
  const auto tokens = StrSplit(csv, ',');
  if (tokens.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "row needs " + std::to_string(schema.num_attributes()) +
        " comma-separated values, got '" + csv + "'");
  }
  values->assign(schema.num_attributes(), 0);
  numerics->assign(schema.num_attributes(), 0.0);
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).is_numeric) {
      (*numerics)[a] = std::strtod(tokens[a].c_str(), nullptr);
    } else {
      const uint64_t v = std::strtoull(tokens[a].c_str(), nullptr, 10);
      if (v >= schema.attribute(a).cardinality) {
        return Status::InvalidArgument("value " + tokens[a] +
                                       " out of domain for attribute " +
                                       std::to_string(a));
      }
      (*values)[a] = static_cast<ValueId>(v);
    }
  }
  return Status::OK();
}

StatusOr<Object> ParseQuery(const Dataset& data, const std::string& csv) {
  std::vector<ValueId> values;
  std::vector<double> numerics;
  NMRS_RETURN_IF_ERROR(ParseRowSpec(data.schema(), csv, &values, &numerics));
  return data.MakeObject(values, numerics);
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "naive") return Algorithm::kNaive;
  if (name == "brs") return Algorithm::kBRS;
  if (name == "srs") return Algorithm::kSRS;
  if (name == "trs") return Algorithm::kTRS;
  if (name == "tsrs") return Algorithm::kTileSRS;
  if (name == "ttrs") return Algorithm::kTileTRS;
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

// Flags shared by every query-running command (query, compare, influence,
// batch): --mem, --attrs, --threads, --kernels, --checksum, --retries,
// --replicas, --replica-seed-base. One parse path so the commands cannot
// drift apart again (batch had grown resilience flags `query` could not
// spell).
Status ParseCommonOptions(const Flags& flags, const Schema& schema,
                          uint64_t dataset_pages, RSOptions* rs) {
  const double mem_frac =
      std::strtod(FlagOr(flags, "mem", "0.1").c_str(), nullptr);
  if (!(mem_frac > 0)) {
    return Status::InvalidArgument(
        "--mem must be a positive fraction of the dataset size, got '" +
        FlagOr(flags, "mem", "0.1") + "'");
  }
  rs->memory = MemoryBudget::FromFraction(mem_frac, dataset_pages);
  for (uint64_t a : ParseUintList(FlagOr(flags, "attrs", ""))) {
    if (a >= schema.num_attributes()) {
      return Status::InvalidArgument(
          "--attrs index " + std::to_string(a) +
          " out of range: the dataset has " +
          std::to_string(schema.num_attributes()) + " attributes");
    }
    rs->selected_attrs.push_back(static_cast<AttrId>(a));
  }
  rs->num_threads = std::atoi(FlagOr(flags, "threads", "1").c_str());
  if (rs->num_threads < 1) {
    return Status::InvalidArgument("--threads must be at least 1");
  }
  rs->use_kernels = flags.count("kernels") != 0;
  if (flags.count("promote-rows") != 0) {
    NMRS_ASSIGN_OR_RETURN(const uint64_t promote,
                          ParseCount(flags, "promote-rows", 16));
    if (promote > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("--promote-rows is out of range");
    }
    rs->kernel_promote_rows = static_cast<uint32_t>(promote);
  }
  rs->resilience.checksum_pages = flags.count("checksum") != 0;
  if (flags.count("retries") != 0) {
    rs->resilience.retry.max_attempts =
        std::atoi(FlagOr(flags, "retries", "3").c_str());
    if (rs->resilience.retry.max_attempts < 1) {
      return Status::InvalidArgument("--retries must be at least 1");
    }
  }
  const int replicas = std::atoi(FlagOr(flags, "replicas", "1").c_str());
  if (replicas < 1 || replicas > static_cast<int>(IoStats::kMaxReplicas)) {
    return Status::InvalidArgument(
        "--replicas must be in [1, " +
        std::to_string(IoStats::kMaxReplicas) + "]");
  }
  rs->resilience.replicas = replicas;
  if (flags.count("replica-seed-base") != 0) {
    rs->resilience.replica_fault_seed_base = std::strtoull(
        FlagOr(flags, "replica-seed-base", "0").c_str(), nullptr, 10);
  }
  return Status::OK();
}

void MaybePrintKernelBanner(const RSOptions& rs) {
  if (!rs.use_kernels) return;
  std::printf("dominance kernels on (dispatch: %s, promote after %u rows)\n",
              KernelDispatchName(ActiveKernelDispatch()),
              rs.kernel_promote_rows);
}

// Fault-injection flags shared by query and batch (docs/ROBUSTNESS.md):
// --fault-seed, --transient-p, --corrupt-p, --data-loss-p, --bad-pages.
Status ParseFaultFlags(const Flags& flags, FaultConfig* cfg) {
  cfg->seed =
      std::strtoull(FlagOr(flags, "fault-seed", "1").c_str(), nullptr, 10);
  cfg->transient_read_p =
      std::strtod(FlagOr(flags, "transient-p", "0").c_str(), nullptr);
  cfg->corrupt_p = std::strtod(FlagOr(flags, "corrupt-p", "0").c_str(),
                               nullptr);
  cfg->data_loss_p =
      std::strtod(FlagOr(flags, "data-loss-p", "0").c_str(), nullptr);
  for (const std::string& tok :
       StrSplit(FlagOr(flags, "bad-pages", ""), ',')) {
    if (tok.empty()) continue;
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "--bad-pages entries must look like file:page, got '" + tok + "'");
    }
    cfg->bad_pages.insert(
        {static_cast<FileId>(
             std::strtoull(tok.substr(0, colon).c_str(), nullptr, 10)),
         std::strtoull(tok.substr(colon + 1).c_str(), nullptr, 10)});
  }
  return Status::OK();
}

// --shards=N / --shard-by=zorder|hash (docs/SHARDING.md).
Status ParseShardPlan(const Flags& flags, ShardPlanOptions* plan) {
  plan->num_shards = std::atoi(FlagOr(flags, "shards", "1").c_str());
  if (plan->num_shards < 1) {
    return Status::InvalidArgument("--shards must be at least 1");
  }
  const std::string by = FlagOr(flags, "shard-by", "zorder");
  if (by == "zorder") {
    plan->shard_by = ShardBy::kZOrderRange;
  } else if (by == "hash") {
    plan->shard_by = ShardBy::kHash;
  } else {
    return Status::InvalidArgument("--shard-by must be 'zorder' or 'hash'");
  }
  return Status::OK();
}

std::string ShardCandidateSummary(const ShardQueryBreakdown& b) {
  std::string out = "cands/shard=[";
  for (size_t s = 0; s < b.shard_candidates.size(); ++s) {
    if (s > 0) out += ",";
    out += std::to_string(b.shard_candidates[s]);
  }
  out += "]";
  if (b.messages.messages != 0) {
    out += " exchange: " + b.messages.ToString();
  }
  return out;
}

// --bad-replicas=r:loss_p,...: pins the faults to the listed replicas only.
// Replica r gets the shared FaultConfig with data_loss_p forced to loss_p
// (and its usual derived per-replica seed); every unlisted replica runs
// clean. Without the flag a faulty template fans out to ALL replicas with
// derived seeds (ReplicaSet::DeriveConfigs).
Status ParseBadReplicas(const Flags& flags, const FaultConfig& base,
                        const ResiliencePolicy& policy,
                        std::vector<FaultConfig>* out) {
  const std::string spec = FlagOr(flags, "bad-replicas", "");
  if (spec.empty()) return Status::OK();
  out->assign(static_cast<size_t>(policy.replicas), FaultConfig{});
  for (const std::string& tok : StrSplit(spec, ',')) {
    if (tok.empty()) continue;
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "--bad-replicas entries must look like replica:loss_p, got '" +
          tok + "'");
    }
    const int r = std::atoi(tok.substr(0, colon).c_str());
    if (r < 0 || r >= policy.replicas) {
      return Status::InvalidArgument(
          "--bad-replicas index " + std::to_string(r) +
          " out of range for --replicas=" + std::to_string(policy.replicas));
    }
    FaultConfig cfg = base;
    cfg.seed = ReplicaSet::ReplicaSeed(base.seed,
                                       policy.replica_fault_seed_base, r);
    cfg.data_loss_p = std::strtod(tok.substr(colon + 1).c_str(), nullptr);
    (*out)[static_cast<size_t>(r)] = cfg;
  }
  return Status::OK();
}

std::string ReplicaReadsSummary(const IoStats& io) {
  std::string out;
  for (size_t r = 0; r < IoStats::kMaxReplicas; ++r) {
    if (io.replica_reads[r] == 0) continue;
    if (!out.empty()) out += " ";
    out += "r" + std::to_string(r) + "=" +
           std::to_string(io.replica_reads[r]);
  }
  return out;
}

int CmdGenerate(const Flags& flags) {
  const uint64_t rows =
      std::strtoull(FlagOr(flags, "rows", "1000").c_str(), nullptr, 10);
  const auto cards_u64 = ParseUintList(FlagOr(flags, "cards", "10,10,10"));
  std::vector<size_t> cards(cards_u64.begin(), cards_u64.end());
  if (cards.empty()) return Fail("--cards must list at least one domain");
  const std::string out = FlagOr(flags, "out", "data.csv");
  const uint64_t seed =
      std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10);
  const std::string dist = FlagOr(flags, "dist", "normal");

  Rng rng(seed);
  Rng data_rng = rng.Fork();
  Rng space_rng = rng.Fork();
  Dataset data = [&] {
    if (dist == "uniform") return GenerateUniform(rows, cards, data_rng);
    if (dist == "zipf") return GenerateZipf(rows, cards, 1.1, data_rng);
    return GenerateNormal(rows, cards, data_rng);
  }();
  Status s = WriteDatasetCsvFile(data, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %llu rows to %s (density %.6f%%)\n",
              static_cast<unsigned long long>(rows), out.c_str(),
              data.Density() * 100);

  const std::string prefix = FlagOr(flags, "matrices", "");
  if (!prefix.empty()) {
    for (AttrId a = 0; a < cards.size(); ++a) {
      DissimilarityMatrix m = MakeRandomMatrix(cards[a], space_rng);
      const std::string path = prefix + std::to_string(a) + ".csv";
      s = WriteMatrixCsvFile(m, path);
      if (!s.ok()) return Fail(s.ToString());
      std::printf("wrote matrix %s (triangle violation rate %.3f)\n",
                  path.c_str(), m.TriangleViolationRate());
    }
  }
  return 0;
}

struct LoadedQuery {
  Dataset data;
  SimilaritySpace space;
  Object query;
};

StatusOr<LoadedQuery> LoadQuerySetup(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  const std::string query_csv = FlagOr(flags, "query", "");
  if (data_path.empty() || prefix.empty() || query_csv.empty()) {
    return Status::InvalidArgument(
        "--data=, --matrices= and --query= are required");
  }
  NMRS_ASSIGN_OR_RETURN(Dataset data, ReadDatasetCsvFile(data_path));
  NMRS_ASSIGN_OR_RETURN(SimilaritySpace space,
                        LoadSpace(data.schema(), prefix));
  NMRS_ASSIGN_OR_RETURN(Object query, ParseQuery(data, query_csv));
  return LoadedQuery{std::move(data), std::move(space), std::move(query)};
}

void PrintStats(const QueryStats& s) {
  std::printf(
      "  checks=%llu (p1 %llu, p2 %llu)  survivors=%llu  batches=%llu+%llu\n"
      "  io: %llu seq + %llu rand pages   compute=%.2fms  response=%.2fms\n",
      static_cast<unsigned long long>(s.checks),
      static_cast<unsigned long long>(s.phase1_checks),
      static_cast<unsigned long long>(s.phase2_checks),
      static_cast<unsigned long long>(s.phase1_survivors),
      static_cast<unsigned long long>(s.phase1_batches),
      static_cast<unsigned long long>(s.phase2_batches),
      static_cast<unsigned long long>(s.io.TotalSequential()),
      static_cast<unsigned long long>(s.io.TotalRandom()),
      s.compute_millis, s.ResponseMillis());
  if (s.kernel_checks != 0 || s.kernel_scalar_rows != 0 ||
      s.kernel_promotions != 0) {
    std::printf(
        "  kernel_checks=%llu  promotions=%llu  scalar_rows=%llu  "
        "block_rows=%llu\n",
        static_cast<unsigned long long>(s.kernel_checks),
        static_cast<unsigned long long>(s.kernel_promotions),
        static_cast<unsigned long long>(s.kernel_scalar_rows),
        static_cast<unsigned long long>(s.kernel_block_rows));
  }
  if (s.io.transient_retries != 0 || s.io.checksum_failures != 0 ||
      s.io.quarantined_pages != 0 || s.io.failovers != 0) {
    std::printf(
        "  faults: %llu transient retries, %llu checksum failures, "
        "%llu quarantined page reads, %llu failovers\n",
        static_cast<unsigned long long>(s.io.transient_retries),
        static_cast<unsigned long long>(s.io.checksum_failures),
        static_cast<unsigned long long>(s.io.quarantined_pages),
        static_cast<unsigned long long>(s.io.failovers));
  }
  if (s.io.ReplicaReadsTotal() != 0) {
    std::printf("  replica reads: %s\n", ReplicaReadsSummary(s.io).c_str());
  }
}

int CmdQuery(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  // Everything below routes through the Database front door
  // (docs/MUTABILITY.md): Open prepares the dataset as generation 0 and
  // the query runs as a one-element batch over the pinned base snapshot —
  // bit-identical rows and counters to the historical direct
  // PrepareDataset + RunReverseSkyline wiring.
  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(setup->data.schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  Status st = ParseCommonOptions(flags, setup->data.schema(),
                                 codec.PagesFor(setup->data.num_rows()),
                                 &dbopts.engine.rs);
  if (!st.ok()) return Fail(st.ToString());
  MaybePrintKernelBanner(dbopts.engine.rs);

  // --overlay-file evaluates the query under one user's preference overlay
  // (docs/OVERLAYS.md) — both the single-shard and sharded paths read it
  // from RSOptions.
  std::optional<MatrixOverlay> overlay;
  if (flags.count("overlay-file") != 0) {
    auto loaded = LoadOverlayFile(setup->space,
                                  FlagOr(flags, "overlay-file", ""));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    overlay.emplace(std::move(*loaded));
    dbopts.engine.rs.overlay = &*overlay;
    std::printf("overlay: %zu delta entries\n", overlay->num_entries());
  }

  st = ParseFaultFlags(flags, &dbopts.engine.faults);
  if (!st.ok()) return Fail(st.ToString());
  dbopts.engine.max_query_retries =
      std::atoi(FlagOr(flags, "max-query-retries", "0").c_str());
  auto workers = ParseCount(flags, "workers", 1);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  dbopts.engine.num_workers = *workers;
  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }

  auto db = Database::Open(setup->data, setup->space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());
  auto batch = (*db)->RunBatch({setup->query});
  if (!batch.ok()) return Fail(batch.status().ToString());
  if (!batch->statuses()[0].ok()) return Fail(batch->statuses()[0].ToString());

  const bool sharded = dbopts.num_shards > 1;
  if (sharded) {
    std::printf("RS(Q) via %s over %d %s shards: %zu rows\n",
                std::string(AlgorithmName(*algo)).c_str(),
                dbopts.shard_plan.num_shards,
                std::string(ShardByName(dbopts.shard_plan.shard_by)).c_str(),
                batch->results()[0].rows.size());
  } else {
    std::printf("RS(Q) via %s: %zu rows\n",
                std::string(AlgorithmName(*algo)).c_str(),
                batch->results()[0].rows.size());
  }
  for (RowId r : batch->results()[0].rows) {
    std::printf("  row %llu %s\n", static_cast<unsigned long long>(r),
                setup->data.GetObject(r).ToString().c_str());
  }
  if (sharded) {
    std::printf("  %s\n",
                ShardCandidateSummary(batch->sharded->breakdown[0]).c_str());
  }
  PrintStats(batch->results()[0].stats);
  return 0;
}

int CmdCompare(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());

  SimulatedDisk disk;
  std::printf("%-6s %-8s %-12s %-10s %-10s %-10s\n", "algo", "result",
              "checks", "seq IO", "rand IO", "compute");
  for (Algorithm algo :
       {Algorithm::kBRS, Algorithm::kSRS, Algorithm::kTRS}) {
    auto prepared = PrepareDataset(&disk, setup->data, algo);
    if (!prepared.ok()) return Fail(prepared.status().ToString());
    RSOptions opts;
    Status st = ParseCommonOptions(flags, setup->data.schema(),
                                   prepared->stored.num_pages(), &opts);
    if (!st.ok()) return Fail(st.ToString());
    auto result = RunReverseSkyline(*prepared, setup->space, setup->query,
                                    algo, opts);
    if (!result.ok()) return Fail(result.status().ToString());
    std::printf("%-6s %-8zu %-12llu %-10llu %-10llu %.2fms\n",
                std::string(AlgorithmName(algo)).c_str(),
                result->rows.size(),
                static_cast<unsigned long long>(result->stats.checks),
                static_cast<unsigned long long>(
                    result->stats.io.TotalSequential()),
                static_cast<unsigned long long>(
                    result->stats.io.TotalRandom()),
                result->stats.compute_millis);
  }
  return 0;
}

int CmdSkyline(const Flags& flags) {
  auto setup = LoadQuerySetup(flags);
  if (!setup.ok()) return Fail(setup.status().ToString());
  auto sky = DynamicSkylineBNL(setup->data, setup->space, setup->query);
  std::printf("dynamic skyline w.r.t. %s: %zu rows\n",
              setup->query.ToString().c_str(), sky.size());
  for (RowId r : sky) {
    std::printf("  row %llu %s\n", static_cast<unsigned long long>(r),
                setup->data.GetObject(r).ToString().c_str());
  }
  return 0;
}

int CmdInfluence(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  if (data_path.empty() || prefix.empty()) {
    return Fail("--data= and --matrices= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());

  const int k = std::atoi(FlagOr(flags, "queries", "10").c_str());
  Rng rng(std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10));
  std::vector<Object> queries;
  for (int i = 0; i < k; ++i) {
    queries.push_back(SampleUniformQuery(*data, rng));
  }

  SimulatedDisk disk;
  auto prepared = PrepareDataset(&disk, *data, Algorithm::kTRS);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  RSOptions opts;
  Status st = ParseCommonOptions(flags, data->schema(),
                                 prepared->stored.num_pages(), &opts);
  if (!st.ok()) return Fail(st.ToString());
  auto report = AnalyzeInfluence(*prepared, *space, queries, Algorithm::kTRS,
                                 opts);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("%-8s %-20s %s\n", "rank", "query", "influence |RS(Q)|");
  int rank = 1;
  for (const auto& entry : report->ranking) {
    std::printf("%-8d %-20s %llu\n", rank++,
                queries[entry.query_index].ToString().c_str(),
                static_cast<unsigned long long>(entry.influence));
  }
  std::printf("\ntotal influence %llu, top-3 share %.1f%%, Gini %.2f\n",
              static_cast<unsigned long long>(report->total_influence),
              report->TopShare(3) * 100, report->Gini());
  return 0;
}

int CmdBatch(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  if (data_path.empty() || prefix.empty()) {
    return Fail("--data= and --matrices= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  const int k = std::atoi(FlagOr(flags, "queries", "8").c_str());
  if (k < 1) return Fail("--queries must be at least 1");
  Rng rng(std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10));
  std::vector<Object> queries;
  for (int i = 0; i < k; ++i) {
    queries.push_back(SampleUniformQuery(*data, rng));
  }

  // The batch runs through the Database front door (docs/MUTABILITY.md):
  // Open prepares the dataset as generation 0, the engine options below
  // shape the snapshot's executor.
  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(data->schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  const uint64_t dataset_pages = codec.PagesFor(data->num_rows());

  EngineOptions& eopts = dbopts.engine;
  auto workers = ParseCount(flags, "workers", 4);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  eopts.num_workers = *workers;
  Status st = ParseCommonOptions(flags, data->schema(), dataset_pages,
                                 &eopts.rs);
  if (!st.ok()) return Fail(st.ToString());
  MaybePrintKernelBanner(eopts.rs);
  st = ParseFaultFlags(flags, &eopts.faults);
  if (!st.ok()) return Fail(st.ToString());
  st = ParseBadReplicas(flags, eopts.faults, eopts.rs.resilience,
                        &eopts.replica_faults);
  if (!st.ok()) return Fail(st.ToString());
  eopts.max_query_retries =
      std::atoi(FlagOr(flags, "max-query-retries", "0").c_str());
  const bool first_error_only = flags.count("fail-fast") != 0;
  eopts.shared_scan = flags.count("shared-scan") != 0;
  if (flags.count("shared-group") != 0) {
    auto group = ParseCount(flags, "shared-group", 16);
    if (!group.ok()) return Fail(group.status().ToString());
    if (*group < 1) return Fail("--shared-group must be at least 1");
    eopts.shared_scan_group = *group;
  }
  if (flags.count("cache-pages") != 0 && flags.count("cache-pct") != 0) {
    return Fail("--cache-pages and --cache-pct are mutually exclusive");
  }
  if (flags.count("cache-pages") != 0) {
    auto cache = ParseCount(flags, "cache-pages", 0);
    if (!cache.ok()) return Fail(cache.status().ToString());
    eopts.cache_pages = *cache;
  } else if (flags.count("cache-pct") != 0) {
    const double pct =
        std::strtod(FlagOr(flags, "cache-pct", "0").c_str(), nullptr);
    if (pct < 0 || pct > 100) return Fail("--cache-pct must be in [0, 100]");
    eopts.cache_pages =
        pct == 0 ? 0
                 : MemoryBudget::FromFraction(pct / 100.0, dataset_pages)
                       .pages;
  }

  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }

  auto db = Database::Open(*data, *space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());
  // With no mutations yet the snapshot IS the base generation (free); the
  // handle gives the printers access to the executor's telemetry.
  auto snap = (*db)->Snapshot();
  if (!snap.ok()) return Fail(snap.status().ToString());

  // --overlay-users / --overlay-file: answer every query for K per-user
  // preference overlays through the incremental overlay executor
  // (docs/OVERLAYS.md) — one base run per query plus re-pruning of the
  // overlay-sensitive rows, instead of one full batch per user.
  if (flags.count("overlay-users") != 0 || flags.count("overlay-file") != 0) {
    auto users = ParseCount(flags, "overlay-users", 0);
    if (!users.ok()) return Fail(users.status().ToString());
    const double touch_pct = std::strtod(
        FlagOr(flags, "overlay-touch-pct", "1").c_str(), nullptr);
    if (!(touch_pct >= 0) || touch_pct > 100) {
      return Fail("--overlay-touch-pct must be in [0, 100]");
    }
    std::vector<MatrixOverlay> overlays;
    overlays.reserve(static_cast<size_t>(*users) + 1);
    if (flags.count("overlay-file") != 0) {
      auto loaded = LoadOverlayFile(*space, FlagOr(flags, "overlay-file", ""));
      if (!loaded.ok()) return Fail(loaded.status().ToString());
      overlays.push_back(std::move(*loaded));
    }
    Rng orng(std::strtoull(FlagOr(flags, "overlay-seed", "7").c_str(),
                           nullptr, 10));
    for (uint64_t u = 0; u < *users; ++u) {
      overlays.push_back(MakeRandomOverlay(*space, orng, touch_pct / 100.0));
    }
    if (overlays.empty()) {
      return Fail("--overlay-users must be at least 1 "
                  "when no --overlay-file is given");
    }
    std::vector<const MatrixOverlay*> ptrs;
    size_t total_entries = 0;
    for (const auto& o : overlays) {
      ptrs.push_back(&o);
      total_entries += o.num_entries();
    }

    auto dbo = snap->RunOverlayBatch(queries, ptrs);
    if (!dbo.ok()) return Fail(dbo.status().ToString());
    if (first_error_only && !dbo->ok()) {
      return Fail(dbo->first_error().ToString());
    }
    const OverlayBatchResult& ob = *dbo->plain;
    std::printf("overlay batch: %d queries x %zu users "
                "(%zu delta entries total)\n",
                k, ptrs.size(), total_entries);
    for (int i = 0; i < k; ++i) {
      if (!ob.statuses[i].ok()) {
        std::printf("  Q%-3d %-20s FAILED: %s\n", i,
                    queries[i].ToString().c_str(),
                    ob.statuses[i].ToString().c_str());
        continue;
      }
      std::string sizes;
      const size_t show = std::min<size_t>(ob.results[i].size(), 16);
      for (size_t u = 0; u < show; ++u) {
        if (u > 0) sizes += ",";
        sizes += std::to_string(ob.results[i][u].rows.size());
      }
      if (ob.results[i].size() > show) sizes += ",...";
      std::printf("  Q%-3d %-20s |RS| per user = [%s]\n", i,
                  queries[i].ToString().c_str(), sizes.c_str());
    }
    std::printf(
        "rows: %llu overlay-sensitive + %llu invariant (user, row) pairs\n"
        "re-checks: %llu scans, %llu candidate checks, %llu pair tests\n"
        "overlay io: %llu seq + %llu rand pages  total io: %llu pages\n"
        "wall %.1fms, modeled makespan %.1fms, modeled throughput %.2f "
        "answers/s\n",
        static_cast<unsigned long long>(ob.sensitive_rows),
        static_cast<unsigned long long>(ob.invariant_rows),
        static_cast<unsigned long long>(ob.recheck_scans),
        static_cast<unsigned long long>(ob.recheck_checks),
        static_cast<unsigned long long>(ob.recheck_pair_tests),
        static_cast<unsigned long long>(ob.overlay_io.TotalSequential()),
        static_cast<unsigned long long>(ob.overlay_io.TotalRandom()),
        static_cast<unsigned long long>(ob.total_io.Total()),
        ob.wall_millis, ob.ModeledMakespanMillis(), ob.ModeledQps());
    if (!ob.ok()) {
      std::fprintf(stderr, "some queries failed: %s\n",
                   ob.first_error().ToString().c_str());
      return 1;
    }
    return 0;
  }

  auto dbr = snap->RunBatch(queries);
  if (!dbr.ok()) return Fail(dbr.status().ToString());
  if (first_error_only && !dbr->ok()) {
    return Fail(dbr->first_error().ToString());
  }

  const ShardedBatchResult& batch = *dbr->sharded;
  const ShardedQueryEngine& engine = snap->engine();
  const bool sharded = engine.num_shards() > 1;
  std::printf("batch of %d %s queries on %zu workers", k,
              std::string(AlgorithmName(*algo)).c_str(), engine.num_workers());
  if (sharded) {
    std::printf(" x %d %s shards", engine.num_shards(),
                std::string(ShardByName(dbopts.shard_plan.shard_by)).c_str());
  }
  std::printf(":\n");
  for (int i = 0; i < k; ++i) {
    const QueryStats& s = batch.results[i].stats;
    if (!batch.statuses[i].ok()) {
      std::printf("  Q%-3d %-20s FAILED: %s (partial io %llu pages)\n", i,
                  queries[i].ToString().c_str(),
                  batch.statuses[i].ToString().c_str(),
                  static_cast<unsigned long long>(s.io.Total()));
    } else if (sharded) {
      std::printf("  Q%-3d %-20s |RS|=%-5zu %s\n", i,
                  queries[i].ToString().c_str(), batch.results[i].rows.size(),
                  ShardCandidateSummary(batch.breakdown[i]).c_str());
    } else {
      std::printf("  Q%-3d %-20s |RS|=%-5zu response=%.2fms\n", i,
                  queries[i].ToString().c_str(), batch.results[i].rows.size(),
                  s.ResponseMillis());
    }
  }
  std::printf("total io: %llu seq + %llu rand pages\n",
              static_cast<unsigned long long>(batch.total_io.TotalSequential()),
              static_cast<unsigned long long>(batch.total_io.TotalRandom()));
  if (sharded) {
    std::printf("exchange: %s (modeled %.2fms)\n",
                batch.total_messages.ToString().c_str(),
                batch.ExchangeModeledMillis());
  }
  std::printf(
      "wall %.1fms, modeled makespan %.1fms, modeled throughput %.2f q/s\n",
      batch.wall_millis, batch.ModeledMakespanMillis(), batch.ModeledQps());
  if (eopts.rs.use_kernels) {
    uint64_t kchecks = 0, promos = 0, scalar_rows = 0, block_rows = 0;
    for (const auto& r : batch.results) {
      kchecks += r.stats.kernel_checks;
      promos += r.stats.kernel_promotions;
      scalar_rows += r.stats.kernel_scalar_rows;
      block_rows += r.stats.kernel_block_rows;
    }
    std::printf("kernels: %llu kernel checks, %llu promotions, "
                "%llu scalar rows, %llu block rows\n",
                static_cast<unsigned long long>(kchecks),
                static_cast<unsigned long long>(promos),
                static_cast<unsigned long long>(scalar_rows),
                static_cast<unsigned long long>(block_rows));
  }
  if (eopts.shared_scan) {
    if (batch.shared_scan_groups != 0) {
      std::printf("shared scans: %llu (group, shard) passes, %llu shared "
                  "batches, %llu shared pages\n",
                  static_cast<unsigned long long>(batch.shared_scan_groups),
                  static_cast<unsigned long long>(batch.shared_scan_batches),
                  static_cast<unsigned long long>(batch.shared_io.Total()));
    } else {
      std::printf("shared scans: fell back to per-query execution\n");
    }
  }
  if (batch.total_io.transient_retries != 0 ||
      batch.total_io.checksum_failures != 0 ||
      batch.total_io.quarantined_pages != 0 ||
      batch.total_io.failovers != 0) {
    std::printf(
        "faults: %llu transient retries, %llu checksum failures, "
        "%llu quarantined page reads, %llu failovers\n",
        static_cast<unsigned long long>(batch.total_io.transient_retries),
        static_cast<unsigned long long>(batch.total_io.checksum_failures),
        static_cast<unsigned long long>(batch.total_io.quarantined_pages),
        static_cast<unsigned long long>(batch.total_io.failovers));
  }
  if (batch.total_io.ReplicaReadsTotal() != 0) {
    std::printf("replica reads: %s\n",
                ReplicaReadsSummary(batch.total_io).c_str());
  }
  if (!batch.quarantined.empty()) {
    std::printf("quarantined pages:");
    for (const auto& [file, page] : batch.quarantined) {
      std::printf(" %u:%llu", file, static_cast<unsigned long long>(page));
    }
    std::printf("\n");
  }
  if (batch.tasks_retried != 0) {
    std::printf("%llu %s recovered via clean-view retry\n",
                static_cast<unsigned long long>(batch.tasks_retried),
                sharded ? "shard tasks" : "queries");
  }
  for (int s = 0; s < engine.num_shards(); ++s) {
    const BufferPool* pool = engine.buffer_pool(s);
    if (pool == nullptr) continue;
    std::printf("cache%s (%llu pages): %s\n",
                sharded ? (" shard " + std::to_string(s)).c_str() : "",
                static_cast<unsigned long long>(pool->capacity_pages()),
                pool->stats().ToString().c_str());
  }
  if (!batch.ok()) {
    std::fprintf(stderr, "%zu of %d queries failed\n", batch.num_failed(), k);
    return 1;
  }
  return 0;
}

// `serve` — online serving loop (docs/MUTABILITY.md): opens the CSV
// dataset as a mutable Database and applies a scripted workload of
// interleaved mutations and queries. Script grammar, one command per
// line ('#' starts a comment, blank lines are skipped):
//
//   insert v1,v2,...   append a row (numeric attrs take doubles)
//   delete KEY         remove the live row with that stable key
//   query v1,v2,...    reverse-skyline query over the current snapshot
//   batch K            K sampled queries as one engine batch
//   compact            fold the delta into a new base generation
//   snapshot           print the pinned epoch (generation, delta, rows)
//   stats              print cumulative DbStats
//
// Output sticks to deterministic fields (keys, row literals, counts) so
// scripted runs can be diffed; a failing script line aborts with its
// line number and a non-zero exit.
int CmdServe(const Flags& flags) {
  const std::string data_path = FlagOr(flags, "data", "");
  const std::string prefix = FlagOr(flags, "matrices", "");
  const std::string script_path = FlagOr(flags, "script", "");
  if (data_path.empty() || prefix.empty() || script_path.empty()) {
    return Fail("--data=, --matrices= and --script= are required");
  }
  auto data = ReadDatasetCsvFile(data_path);
  if (!data.ok()) return Fail(data.status().ToString());
  auto space = LoadSpace(data->schema(), prefix);
  if (!space.ok()) return Fail(space.status().ToString());
  auto algo = ParseAlgorithm(FlagOr(flags, "algo", "trs"));
  if (!algo.ok()) return Fail(algo.status().ToString());

  DatabaseOptions dbopts;
  dbopts.algo = *algo;
  dbopts.prepare.checksum_pages = flags.count("checksum") != 0;
  const RowCodec codec(data->schema(), kDefaultPageSize,
                       dbopts.prepare.checksum_pages);
  Status st = ParseCommonOptions(flags, data->schema(),
                                 codec.PagesFor(data->num_rows()),
                                 &dbopts.engine.rs);
  if (!st.ok()) return Fail(st.ToString());
  auto workers = ParseCount(flags, "workers", 1);
  if (!workers.ok()) return Fail(workers.status().ToString());
  if (*workers < 1) return Fail("--workers must be at least 1");
  dbopts.engine.num_workers = *workers;
  if (flags.count("cache-pages") != 0) {
    auto cache = ParseCount(flags, "cache-pages", 0);
    if (!cache.ok()) return Fail(cache.status().ToString());
    dbopts.engine.cache_pages = *cache;
  }
  if (flags.count("shards") != 0) {
    st = ParseShardPlan(flags, &dbopts.shard_plan);
    if (!st.ok()) return Fail(st.ToString());
    dbopts.num_shards = dbopts.shard_plan.num_shards;
  }
  if (flags.count("max-delta") != 0) {
    auto max_delta = ParseCount(flags, "max-delta", dbopts.max_delta_mutations);
    if (!max_delta.ok()) return Fail(max_delta.status().ToString());
    dbopts.max_delta_mutations = *max_delta;
  }

  auto db = Database::Open(*data, *space, dbopts);
  if (!db.ok()) return Fail(db.status().ToString());

  // key -> printable row literal, kept in lockstep with the mutations so
  // query results can show row contents without re-reading pages.
  std::map<uint64_t, std::string> mirror;
  for (RowId r = 0; r < data->num_rows(); ++r) {
    mirror[r] = data->GetObject(r).ToString();
  }

  std::ifstream in(script_path);
  if (!in) return Fail("cannot open --script=" + script_path);
  Rng rng(std::strtoull(FlagOr(flags, "seed", "42").c_str(), nullptr, 10));

  const auto delta_tag = [](const DeltaVersion& v) {
    return "+" + std::to_string(v.inserts) + "i/" +
           std::to_string(v.deletes) + "d";
  };
  const auto fail_line = [](int line_no, const std::string& msg) {
    return Fail("script line " + std::to_string(line_no) + ": " + msg);
  };

  uint64_t queries_run = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream tokens(line);
    std::string cmd, rest;
    tokens >> cmd;
    std::getline(tokens, rest);
    const size_t start = rest.find_first_not_of(" \t");
    const size_t end = rest.find_last_not_of(" \t");
    rest = start == std::string::npos ? ""
                                      : rest.substr(start, end - start + 1);
    if (cmd.empty()) continue;

    if (cmd == "insert") {
      std::vector<ValueId> values;
      std::vector<double> numerics;
      st = ParseRowSpec((*db)->schema(), rest, &values, &numerics);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      auto key = (*db)->Insert(values, numerics);
      if (!key.ok()) return fail_line(line_no, key.status().ToString());
      mirror[*key] = (*db)->MakeObject(values, numerics).ToString();
      std::printf("insert key=%llu %s (%s)\n",
                  static_cast<unsigned long long>(*key),
                  mirror[*key].c_str(),
                  delta_tag((*db)->delta_version()).c_str());
    } else if (cmd == "delete") {
      const uint64_t key = std::strtoull(rest.c_str(), nullptr, 10);
      st = (*db)->Delete(key);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      mirror.erase(key);
      std::printf("delete key=%llu (%s)\n",
                  static_cast<unsigned long long>(key),
                  delta_tag((*db)->delta_version()).c_str());
    } else if (cmd == "query") {
      std::vector<ValueId> values;
      std::vector<double> numerics;
      st = ParseRowSpec((*db)->schema(), rest, &values, &numerics);
      if (!st.ok()) return fail_line(line_no, st.ToString());
      auto r = (*db)->Query((*db)->MakeObject(values, numerics));
      if (!r.ok()) return fail_line(line_no, r.status().ToString());
      ++queries_run;
      std::printf("RS(Q=%s) via %s @gen%llu%s: %zu rows\n", rest.c_str(),
                  std::string(AlgorithmName(*algo)).c_str(),
                  static_cast<unsigned long long>(r->snapshot_generation),
                  delta_tag(r->snapshot_version).c_str(),
                  r->keys.size());
      for (uint64_t key : r->keys) {
        const auto it = mirror.find(key);
        std::printf("  key %llu %s\n", static_cast<unsigned long long>(key),
                    it == mirror.end() ? "?" : it->second.c_str());
      }
    } else if (cmd == "batch") {
      const int k = std::atoi(rest.c_str());
      if (k < 1) return fail_line(line_no, "batch needs a positive count");
      std::vector<Object> queries;
      queries.reserve(k);
      for (int i = 0; i < k; ++i) {
        queries.push_back(SampleUniformQuery(*data, rng));
      }
      auto batch = (*db)->RunBatch(queries);
      if (!batch.ok()) return fail_line(line_no, batch.status().ToString());
      if (!batch->ok()) {
        return fail_line(line_no, batch->first_error().ToString());
      }
      queries_run += k;
      std::string sizes;
      for (int i = 0; i < k; ++i) {
        if (i > 0) sizes += ",";
        sizes += std::to_string(batch->results()[i].rows.size());
      }
      std::printf("batch of %d @gen%llu%s: |RS| = [%s]\n", k,
                  static_cast<unsigned long long>(batch->snapshot_generation),
                  delta_tag(batch->snapshot_version).c_str(), sizes.c_str());
    } else if (cmd == "compact") {
      st = (*db)->Compact();
      if (!st.ok()) return fail_line(line_no, st.ToString());
      std::printf("compact -> gen%llu, %llu rows\n",
                  static_cast<unsigned long long>((*db)->generation()),
                  static_cast<unsigned long long>((*db)->num_rows()));
    } else if (cmd == "snapshot") {
      auto snap = (*db)->Snapshot();
      if (!snap.ok()) return fail_line(line_no, snap.status().ToString());
      std::printf("snapshot gen%llu%s: %llu rows\n",
                  static_cast<unsigned long long>(snap->generation()),
                  delta_tag(snap->delta_version()).c_str(),
                  static_cast<unsigned long long>(snap->num_rows()));
    } else if (cmd == "stats") {
      const DbStats s = (*db)->stats();
      std::printf("stats: %llu inserts, %llu deletes, %llu wal records, "
                  "%llu compactions, %llu snapshots built (+%llu reused)\n",
                  static_cast<unsigned long long>(s.inserts),
                  static_cast<unsigned long long>(s.deletes),
                  static_cast<unsigned long long>(s.wal_records),
                  static_cast<unsigned long long>(s.compactions),
                  static_cast<unsigned long long>(s.snapshots_built),
                  static_cast<unsigned long long>(s.snapshots_reused));
    } else {
      return fail_line(line_no, "unknown command '" + cmd + "'");
    }
  }

  const DbStats s = (*db)->stats();
  std::printf("served: %llu inserts, %llu deletes, %llu queries, "
              "%llu compactions; gen%llu holds %llu live rows\n",
              static_cast<unsigned long long>(s.inserts),
              static_cast<unsigned long long>(s.deletes),
              static_cast<unsigned long long>(queries_run),
              static_cast<unsigned long long>(s.compactions),
              static_cast<unsigned long long>((*db)->generation()),
              static_cast<unsigned long long>((*db)->num_rows()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: nmrs_cli <generate|query|compare|skyline|influence|"
                 "batch|serve> [--flags]\n"
                 "see the header comment of tools/nmrs_cli.cc\n");
    return 1;
  }
  const std::string cmd = argv[1];
  const Flags flags = ParseFlags(argc, argv);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "compare") return CmdCompare(flags);
  if (cmd == "skyline") return CmdSkyline(flags);
  if (cmd == "influence") return CmdInfluence(flags);
  if (cmd == "batch") return CmdBatch(flags);
  if (cmd == "serve") return CmdServe(flags);
  return Fail("unknown command '" + cmd + "'");
}

}  // namespace
}  // namespace nmrs

int main(int argc, char** argv) { return nmrs::Run(argc, argv); }
