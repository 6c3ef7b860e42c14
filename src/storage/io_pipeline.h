#ifndef IOLAP_STORAGE_IO_PIPELINE_H_
#define IOLAP_STORAGE_IO_PIPELINE_H_

#include <algorithm>
#include <thread>

namespace iolap {

/// Tuning knobs for the storage I/O pipeline. Every knob affects only
/// *when* and *in how large transfers* bytes move, never their values or
/// the demand-I/O counts the cost model pins — the EDB produced by an
/// allocation run is byte-identical for every setting, and equivalence
/// tests compare the pipeline fully on vs. fully off (`Serial()`).
struct IoPipelineOptions {
  /// Worker threads for external-sort run generation. Chunk boundaries are
  /// fixed by input offset, so any value sorts the same runs to the same
  /// scratch pages; 1 generates runs inline, 0 picks the hardware
  /// concurrency (capped at 8).
  int sort_threads = 0;

  /// Pages of merge input buffered per run in the k-way merge. 0 splits
  /// the sort budget across the merge group (block transfers, same page
  /// count); 1 reproduces the classic page-at-a-time merge I/O pattern.
  int merge_block_pages = 0;

  /// Coalesce contiguous dirty pages into single vectored writes on
  /// FlushFile/FlushAll (eviction write-back stays per-page).
  bool batched_writeback = true;

  int EffectiveSortThreads() const {
    if (sort_threads > 0) return sort_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 8u));
  }

  /// The fully serial pipeline: the pre-overhaul I/O pattern, used as the
  /// baseline for equivalence tests and the pipeline benchmarks.
  static IoPipelineOptions Serial() {
    IoPipelineOptions o;
    o.sort_threads = 1;
    o.merge_block_pages = 1;
    o.batched_writeback = false;
    return o;
  }
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_IO_PIPELINE_H_
