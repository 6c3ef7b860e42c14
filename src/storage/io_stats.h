#ifndef IOLAP_STORAGE_IO_STATS_H_
#define IOLAP_STORAGE_IO_STATS_H_

#include <cstdint>
#include <ostream>

namespace iolap {

/// Counters for page-granularity disk traffic. The paper's cost model and
/// all of its theorems are stated in page I/Os, so every experiment reports
/// these alongside wall-clock time. Every read is a demand read — the
/// buffer pool has no read-ahead — so `page_reads` is exactly what
/// Theorems 6/7/10 bound.
struct IoStats {
  int64_t page_reads = 0;  // demand reads (theorem-counted)
  int64_t page_writes = 0;
  /// Always 0: the buffer pool issues no read-ahead. Kept so consumers
  /// that report it keep compiling.
  int64_t prefetch_reads = 0;

  /// Demand I/O total — the quantity the paper's cost model predicts.
  int64_t total() const { return page_reads + page_writes; }

  IoStats operator-(const IoStats& other) const {
    return IoStats{page_reads - other.page_reads,
                   page_writes - other.page_writes,
                   prefetch_reads - other.prefetch_reads};
  }
  IoStats& operator+=(const IoStats& other) {
    page_reads += other.page_reads;
    page_writes += other.page_writes;
    prefetch_reads += other.prefetch_reads;
    return *this;
  }
  bool operator==(const IoStats& other) const {
    return page_reads == other.page_reads &&
           page_writes == other.page_writes &&
           prefetch_reads == other.prefetch_reads;
  }
};

inline std::ostream& operator<<(std::ostream& os, const IoStats& s) {
  return os << "{reads=" << s.page_reads << " writes=" << s.page_writes
            << "}";
}

/// Buffer-pool behaviour counters (hits avoid disk traffic entirely).
struct PoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;   // dirty pages written back
  int64_t writeback_batches = 0;  // vectored writes that carried them
  /// Always 0: the pool has no read-ahead, so no pin is served by a
  /// prefetched frame, none is wasted and no hint is gated. Kept so
  /// consumers that report them keep compiling.
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t prefetch_gated = 0;

  PoolStats operator-(const PoolStats& other) const {
    return PoolStats{hits - other.hits,
                     misses - other.misses,
                     evictions - other.evictions,
                     dirty_writebacks - other.dirty_writebacks,
                     writeback_batches - other.writeback_batches,
                     prefetch_hits - other.prefetch_hits,
                     prefetch_wasted - other.prefetch_wasted,
                     prefetch_gated - other.prefetch_gated};
  }
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_IO_STATS_H_
