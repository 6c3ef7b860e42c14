#ifndef IOLAP_STORAGE_BUFFER_POOL_H_
#define IOLAP_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/io_stats.h"

namespace iolap {

class BufferPool;

/// RAII pin on a buffer-pool page. While alive, the frame cannot be evicted
/// and `data()` stays valid. Call `MarkDirty()` after mutating the page so
/// the pool writes it back on eviction/flush. A guard may be moved across
/// threads but must be used by one thread at a time.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, int32_t frame);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  std::byte* data();
  const std::byte* data() const;
  void MarkDirty();

  /// Drops the pin early (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  int32_t frame_ = -1;
};

/// Fixed-capacity LRU buffer pool over a DiskManager. This is the memory
/// budget `B` in the paper's cost model: every algorithm accesses table
/// pages exclusively through the pool, so restricting the pool's capacity
/// reproduces the paper's "memory limited to a restricted buffer pool"
/// experimental setup.
///
/// Reads are demand reads only: `Pin` either hits a cached frame or claims
/// a victim (a free frame, else the least recently used unpinned one) and
/// reads the page into it with one `DiskManager::ReadPage`. There is no
/// read-ahead, so `IoStats::page_reads` is exactly the number of misses —
/// the quantity the paper's cost model counts (DESIGN.md §13 records why
/// the pool has no read-ahead).
///
/// Thread-safety: all pin/unpin/flush/evict bookkeeping is serialized by a
/// single pool mutex (held across the disk read of a miss, so concurrent
/// misses do not overlap their I/O — the parallel execution layer targets
/// CPU-bound workloads whose pages are pool hits). Page *contents* are
/// accessed through PageGuard without the mutex: a pinned frame is never
/// evicted or re-assigned, and the frame buffers are allocated once in the
/// constructor, so `data()` pointers stay stable. Concurrent readers of one
/// page are safe; writers of one page must be externally serialized. The
/// pool starts no thread of its own.
///
/// Destruction contract: the destructor writes back any remaining dirty
/// frames best-effort (failures are logged to stderr and, in debug builds,
/// assert). Callers that must observe flush errors should call FlushAll()
/// themselves before destroying the pool — a destructor cannot report them.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins an existing page, reading it from disk on a miss.
  Result<PageGuard> Pin(FileId file, PageId page);

  /// Pins a brand-new page at the end of `file` without a disk read. The
  /// frame starts zeroed and dirty; `page` must equal the file's current
  /// size in pages.
  Result<PageGuard> PinNew(FileId file, PageId page);

  /// Writes back all dirty pages of `file` (keeps them cached). Runs of
  /// contiguous dirty pages go out as one vectored write each (eviction
  /// write-back stays per page).
  Status FlushFile(FileId file);

  /// Writes back and drops every cached page of `file`. Required before
  /// accessing the file through a different channel (e.g. external sort).
  Status EvictFile(FileId file);

  /// Flushes every dirty page in the pool, batched like FlushFile.
  Status FlushAll();

  size_t capacity_pages() const { return capacity_; }
  size_t pinned_pages() const;
  /// Race-free snapshot of the pool counters.
  PoolStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = PoolStats{};
  }
  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    FileId file = kInvalidFileId;
    PageId page = -1;
    int32_t pin_count = 0;
    bool dirty = false;
    std::list<int32_t>::iterator lru_pos;  // valid iff in_lru
    bool in_lru = false;
    std::unique_ptr<std::byte[]> data;
  };

  struct Key {
    FileId file;
    PageId page;
    bool operator==(const Key& o) const {
      return file == o.file && page == o.page;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.file) << 48) ^
                                  k.page);
    }
  };

  // All private helpers below require mu_ to be held by the caller.
  Result<int32_t> FindVictim();
  Status FlushFrame(Frame& frame);
  /// Writes back every dirty frame of `file` (of every file when `file` is
  /// kInvalidFileId), contiguous pages in one vectored write each.
  Status FlushDirtyFrames(FileId file);
  void ReleaseFrame(size_t frame_index);

  void Unpin(int32_t frame_index);
  void SetDirty(int32_t frame_index) {
    std::lock_guard<std::mutex> lock(mu_);
    frames_[frame_index].dirty = true;
  }
  std::byte* FrameData(int32_t frame_index) {
    // Lock-free: the caller holds a pin, so the frame cannot be
    // re-assigned underneath it, and frame buffers never move.
    return frames_[frame_index].data.get();
  }

  /// Mirrors the frames-in-use count into the installed occupancy gauge.
  /// Requires mu_; a null handle (no registry installed) makes this one
  /// pointer check.
  void TouchOccupancyGauge() {
    if (occupancy_gauge_ != nullptr) {
      occupancy_gauge_->Set(
          static_cast<int64_t>(capacity_ - free_frames_.size()));
    }
  }

  DiskManager* disk_;
  size_t capacity_;
  // Observability handles, resolved once at construction; null when no
  // registry is installed.
  Gauge* occupancy_gauge_ = nullptr;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<int32_t> free_frames_;
  std::list<int32_t> lru_;  // front = least recently used, unpinned only
  std::unordered_map<Key, int32_t, KeyHash> page_table_;
  PoolStats stats_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_BUFFER_POOL_H_
