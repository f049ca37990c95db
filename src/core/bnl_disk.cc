#include "core/bnl_disk.h"

#include <algorithm>

#include "common/timer.h"
#include "core/dominance.h"
#include "core/query_distance_table.h"
#include "storage/paged_reader.h"

namespace nmrs {

namespace {

// An object held in the BNL window. `ts` is the read-counter at insertion
// time: an entry can only be confirmed at end of pass if it was inserted
// before the pass's first spill (otherwise some spilled object was never
// compared against it).
struct WindowEntry {
  std::vector<ValueId> values;
  std::vector<double> numerics;
  RowId id;
  uint64_t ts;
};

// a ≻_ref b over the selected attributes (raw-pointer variant of
// DominatesWrt). Counts one check per attribute examined. Both sides of a
// BNL comparison are distances *to* the fixed reference, so the memoized
// path reads the query table's ToQuery column (d(., ref)) — two flat loads
// instead of two matrix indirections per categorical attribute.
bool RawDominates(const SimilaritySpace& space, const Schema& schema,
                  const std::vector<AttrId>& selected,
                  const QueryDistanceTable* table, const Object& ref,
                  const ValueId* a_vals, const double* a_nums,
                  const ValueId* b_vals, const double* b_nums,
                  uint64_t* checks) {
  bool strict = false;
  for (size_t k = 0; k < selected.size(); ++k) {
    const AttrId i = selected[k];
    double da, db;
    if (schema.attribute(i).is_numeric) {
      da = space.NumDist(i, a_nums[i], ref.numerics[i]);
      db = space.NumDist(i, b_nums[i], ref.numerics[i]);
    } else if (table != nullptr) {
      const double* to_ref = table->ToQuery(k);
      da = to_ref[a_vals[i]];
      db = to_ref[b_vals[i]];
    } else {
      da = space.CatDist(i, a_vals[i], ref.values[i]);
      db = space.CatDist(i, b_vals[i], ref.values[i]);
    }
    ++*checks;
    if (da > db) return false;
    if (da < db) strict = true;
  }
  return strict;
}

}  // namespace

StatusOr<ReverseSkylineResult> BnlDynamicSkyline(const StoredDataset& data,
                                                 const SimilaritySpace& space,
                                                 const Object& ref,
                                                 const RSOptions& opts) {
  SimulatedDisk* disk = data.disk();
  const Schema& schema = data.schema();
  const size_t m = schema.num_attributes();
  const bool numerics = schema.NumNumeric() > 0;
  if (opts.memory.pages < 2) {
    return Status::InvalidArgument(
        "BNL needs a memory budget of at least 2 pages");
  }

  Timer timer;
  const IoStats io_before = disk->stats();
  disk->InvalidateArmPosition();

  const std::vector<AttrId> selected =
      ResolveSelectedAttrs(schema, opts.selected_attrs);
  const QueryDistanceTable qtable(space, schema, ref, selected, opts.overlay);
  PagedReader reader(disk, opts.buffer_pool, MakeReaderOptions(opts));
  ReverseSkylineResult result;
  QueryStats& stats = result.stats;

  const RowCodec codec(schema, disk->page_size(),
                       opts.resilience.checksum_pages);
  // One page buffers the input; the rest holds the window.
  const uint64_t window_budget =
      (opts.memory.pages - 1) * disk->page_size();
  const size_t entry_bytes = codec.row_bytes();

  std::vector<WindowEntry> window;
  uint64_t window_bytes = 0;

  // The input of the first pass is `data`; later passes consume the spill
  // file of the previous pass.
  StoredDataset input = data;
  bool input_is_temp = false;

  for (;;) {
    ++stats.phase1_batches;  // = BNL passes
    FileId spill_file = disk->CreateFile("bnl-spill");
    RowWriter spill(disk, spill_file, schema, opts.resilience.checksum_pages);
    uint64_t counter = 0;
    uint64_t first_spill_ts = ~uint64_t{0};

    RowBatch page(m, numerics);
    for (PageId p = 0; p < input.num_pages(); ++p) {
      page.Clear();
      NMRS_RETURN_IF_ERROR(input.ReadPageVia(&reader, p, &page));
      for (size_t i = 0; i < page.size(); ++i) {
        ++counter;
        const ValueId* vals = page.row_values(i);
        const double* nums = page.row_numerics(i);
        const RowId id = page.id(i);

        bool dominated = false;
        for (size_t w = 0; w < window.size();) {
          WindowEntry& entry = window[w];
          if (entry.id == id) {  // re-fed window remainder meeting itself
            ++w;
            continue;
          }
          ++stats.pair_tests;
          if (RawDominates(space, schema, selected, &qtable, ref,
                           entry.values.data(), entry.numerics.data(), vals,
                           nums, &stats.checks)) {
            dominated = true;
            break;
          }
          if (RawDominates(space, schema, selected, &qtable, ref, vals,
                           nums, entry.values.data(), entry.numerics.data(),
                           &stats.checks)) {
            window_bytes -= entry_bytes;
            entry = std::move(window.back());
            window.pop_back();
            continue;  // same index now holds a new entry
          }
          ++w;
        }
        if (dominated) continue;
        if (window_bytes + entry_bytes <= window_budget) {
          WindowEntry entry;
          entry.values.assign(vals, vals + m);
          if (nums != nullptr) {
            entry.numerics.assign(nums, nums + m);
          } else {
            entry.numerics.assign(m, 0.0);
          }
          entry.id = id;
          entry.ts = counter;
          window.push_back(std::move(entry));
          window_bytes += entry_bytes;
        } else {
          if (first_spill_ts == ~uint64_t{0}) first_spill_ts = counter;
          NMRS_RETURN_IF_ERROR(spill.Add(id, vals, nums));
        }
      }
    }
    NMRS_RETURN_IF_ERROR(spill.Finish());

    // Confirm window entries inserted before the first spill; carry the
    // rest into the next pass (they still owe comparisons against the
    // spilled objects).
    std::vector<WindowEntry> carry;
    for (auto& entry : window) {
      if (entry.ts < first_spill_ts) {
        result.rows.push_back(entry.id);
      } else {
        carry.push_back(std::move(entry));
      }
    }
    window.clear();
    window_bytes = 0;

    if (input_is_temp) {
      NMRS_RETURN_IF_ERROR(disk->DeleteFile(input.file()));
    }

    if (spill.rows_written() == 0 && carry.empty()) {
      NMRS_RETURN_IF_ERROR(disk->DeleteFile(spill_file));
      break;
    }

    // Next pass input = carried window entries + spilled objects.
    FileId next_file = disk->CreateFile("bnl-next");
    RowWriter next(disk, next_file, schema, opts.resilience.checksum_pages);
    for (const auto& entry : carry) {
      NMRS_RETURN_IF_ERROR(next.Add(entry.id, entry.values.data(),
                                    numerics ? entry.numerics.data()
                                             : nullptr));
    }
    {
      StoredDataset spilled(disk, spill_file, schema, spill.rows_written());
      RowBatch copy(m, numerics);
      for (PageId p = 0; p < spilled.num_pages(); ++p) {
        copy.Clear();
        NMRS_RETURN_IF_ERROR(spilled.ReadPageVia(&reader, p, &copy));
        for (size_t i = 0; i < copy.size(); ++i) {
          NMRS_RETURN_IF_ERROR(
              next.Add(copy.id(i), copy.row_values(i), copy.row_numerics(i)));
        }
      }
    }
    NMRS_RETURN_IF_ERROR(next.Finish());
    NMRS_RETURN_IF_ERROR(disk->DeleteFile(spill_file));
    input = StoredDataset(disk, next_file, schema, next.rows_written(),
                          opts.resilience.checksum_pages);
    input_is_temp = true;
  }

  std::sort(result.rows.begin(), result.rows.end());
  stats.phase1_checks = stats.checks;
  stats.result_size = result.rows.size();
  stats.io = disk->stats() - io_before;
  reader.FoldStatsInto(&stats.io);
  stats.modeled_backoff_millis = reader.modeled_backoff_millis();
  stats.compute_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace nmrs
