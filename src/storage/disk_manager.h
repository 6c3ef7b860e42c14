#ifndef IOLAP_STORAGE_DISK_MANAGER_H_
#define IOLAP_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"

namespace iolap {

/// Size of one disk page in bytes. Matches the 4 KB page size used in the
/// paper's experiments.
inline constexpr size_t kPageSize = 4096;

using FileId = int32_t;
using PageId = int64_t;

inline constexpr FileId kInvalidFileId = -1;

/// Owns a workspace directory of page-addressed temporary files and counts
/// every page read/write. All persistent state in the library (fact tables,
/// summary tables, sort runs, the extended database) lives in files managed
/// here, so `stats()` captures the total disk traffic of an operation.
///
/// Thread-safety: page reads/writes on *distinct* pages may run
/// concurrently (positional pread/pwrite on a shared fd; the file table is
/// guarded by a reader/writer lock and the I/O counters are atomic).
/// Concurrent writes to the *same* page, and racing appends to the same
/// file, are the caller's responsibility to serialize — every writer in
/// the library writes a file from one thread at a time.
/// `SetFaultInjector` must be called before any concurrent use; injector
/// invocations themselves are serialized by an internal mutex so stateful
/// test injectors (countdowns) stay well-defined under concurrency.
class DiskManager {
 public:
  /// Creates (if needed) and takes over `directory`. Files created by this
  /// manager are removed in the destructor.
  explicit DiskManager(std::string directory);
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Creates a new empty file. `hint` is embedded in the on-disk name for
  /// debuggability only.
  Result<FileId> CreateFile(const std::string& hint);

  /// Reads page `page` of `file` into `buffer` (kPageSize bytes). Reading a
  /// page at or beyond the current size is an error.
  Status ReadPage(FileId file, PageId page, void* buffer);

  /// Reads `n` consecutive pages starting at `first` into `buffer`
  /// (n * kPageSize bytes) with one positional read. Counts `n` page reads.
  Status ReadPages(FileId file, PageId first, int64_t n, void* buffer);

  /// Writes `buffer` (kPageSize bytes) to page `page`, growing the file if
  /// `page` is the first page past the end. Writing further past the end is
  /// an error (pages are always allocated densely).
  Status WritePage(FileId file, PageId page, const void* buffer);

  /// Writes `n` consecutive pages starting at `first` from a contiguous
  /// buffer with one positional write, growing the file if the range
  /// extends it (`first` must not leave a hole). Counts `n` page writes.
  Status WritePages(FileId file, PageId first, int64_t n, const void* buffer);

  /// Vectored variant of WritePages: the pages live in `n` separate
  /// kPageSize buffers (e.g. buffer-pool frames) and are written with
  /// pwritev. Same growth rule and counting as WritePages.
  Status WritePagesGather(FileId file, PageId first,
                          const std::byte* const* pages, int64_t n);

  /// Number of pages currently in `file`.
  Result<int64_t> SizeInPages(FileId file) const;

  /// Shrinks `file` to `pages` pages. `pages` must not exceed current size.
  Status Truncate(FileId file, int64_t pages);

  /// Closes and unlinks `file`.
  Status DeleteFile(FileId file);

  /// Copies the first `pages` pages of `file` into a fresh file at
  /// `dest_path` (outside the workspace; survives this manager's
  /// destructor) with raw positional reads, then fsyncs the copy. The
  /// caller must flush dirty buffer-pool pages first. Checkpoint traffic:
  /// bypasses the IoStats counters entirely — the paper's cost model counts
  /// demand I/O, and enabling checkpoints must not change it — but still
  /// consults the fault injector with op 'c' so recovery tests can kill a
  /// run mid-checkpoint.
  Status ExportPages(FileId file, int64_t pages, const std::string& dest_path);

  /// Inverse of ExportPages: copies `pages` pages from `src_path` into
  /// `file`, which must currently be empty, and records the new size.
  /// Uncounted, injector op 'c', like ExportPages.
  Status ImportPages(FileId file, const std::string& src_path, int64_t pages);

  /// Runs the fault injector for `n` checkpoint ('c') operations on behalf
  /// of the recovery layer, whose manifest and payload writes move bytes
  /// outside the page API (so they could not otherwise be fault-tested).
  Status InjectCheckpointOps(int64_t n) {
    return Inject('c', kInvalidFileId, 0, n);
  }

  /// Race-free snapshot of the I/O counters (the counters themselves are
  /// atomics, so concurrent reads and writes keep incrementing while the
  /// snapshot is taken).
  IoStats stats() const {
    IoStats out;
    out.page_reads = page_reads_.load(std::memory_order_relaxed);
    out.page_writes = page_writes_.load(std::memory_order_relaxed);
    return out;
  }
  void ResetStats() {
    page_reads_.store(0, std::memory_order_relaxed);
    page_writes_.store(0, std::memory_order_relaxed);
  }

  const std::string& directory() const { return directory_; }

  /// Test hook: called before every page read ('r') / write ('w'); a
  /// non-OK return is surfaced as that operation's result. Exercises the
  /// error-propagation paths of everything built on top of the disk.
  /// Must be installed before the manager is shared across threads.
  using FaultInjector = std::function<Status(char op, FileId, PageId)>;
  void SetFaultInjector(FaultInjector injector) {
    fault_injector_ = std::move(injector);
  }

 private:
  struct FileState {
    int fd = -1;
    std::atomic<int64_t> size_pages{0};
    std::string path;
  };

  Result<FileState*> GetFile(FileId file) const;
  Status Inject(char op, FileId file, PageId first, int64_t n);
  Status GrowTo(FileState* state, PageId end_page);

  std::string directory_;
  FileId next_file_id_ = 0;
  // unique_ptr values keep FileState addresses stable across rehashes, so
  // readers can use the state after dropping the shared lock.
  std::unordered_map<FileId, std::unique_ptr<FileState>> files_;
  mutable std::shared_mutex mu_;  // guards files_ / next_file_id_
  std::mutex injector_mu_;        // serializes stateful fault injectors
  std::atomic<int64_t> page_reads_{0};
  std::atomic<int64_t> page_writes_{0};
  FaultInjector fault_injector_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_DISK_MANAGER_H_
