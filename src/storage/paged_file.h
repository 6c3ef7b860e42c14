#ifndef IOLAP_STORAGE_PAGED_FILE_H_
#define IOLAP_STORAGE_PAGED_FILE_H_

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace iolap {

/// A file of fixed-size, trivially copyable records, `RecordsPerPage` to a
/// page (records never span pages; the page tail is padding). All access
/// goes through a BufferPool so I/O is counted and memory-bounded.
///
/// The record count lives in memory for the lifetime of the process; these
/// are working files of a single allocation run, not a persistent store.
template <typename T>
class TypedFile {
  static_assert(std::is_trivially_copyable_v<T>,
                "TypedFile records must be trivially copyable");
  static_assert(sizeof(T) <= kPageSize, "record larger than a page");

 public:
  static constexpr int64_t kRecordsPerPage =
      static_cast<int64_t>(kPageSize / sizeof(T));

  TypedFile() = default;
  TypedFile(FileId file, int64_t record_count)
      : file_(file), count_(record_count) {}

  static Result<TypedFile<T>> Create(DiskManager& disk,
                                     const std::string& hint) {
    IOLAP_ASSIGN_OR_RETURN(FileId id, disk.CreateFile(hint));
    return TypedFile<T>(id, 0);
  }

  FileId file_id() const { return file_; }
  int64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  int64_t size_in_pages() const {
    return (count_ + kRecordsPerPage - 1) / kRecordsPerPage;
  }
  static PageId PageOf(int64_t index) { return index / kRecordsPerPage; }
  static int64_t SlotOf(int64_t index) { return index % kRecordsPerPage; }

  /// Adjusts the logical record count (used after external sorts or bulk
  /// loads performed outside the typed interface).
  void set_size(int64_t count) { count_ = count; }

  /// Rounds the record count up to the next page boundary. The skipped
  /// slots stay zeroed on disk and are never part of any scan range.
  /// (The preprocessor pads with explicit sentinel records instead, so
  /// whole-file sorts remain well-defined; this stays for callers that can
  /// guarantee the padded range is never scanned or sorted.)
  void PadToPageBoundary() {
    count_ = ((count_ + kRecordsPerPage - 1) / kRecordsPerPage) *
             kRecordsPerPage;
  }

  Result<T> Get(BufferPool& pool, int64_t index) const {
    if (index < 0 || index >= count_) {
      return Status::OutOfRange("record index " + std::to_string(index) +
                                " out of range [0," + std::to_string(count_) +
                                ")");
    }
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool.Pin(file_, PageOf(index)));
    T out;
    std::memcpy(&out, guard.data() + SlotOf(index) * sizeof(T), sizeof(T));
    return out;
  }

  Status Put(BufferPool& pool, int64_t index, const T& value) {
    if (index < 0 || index > count_) {
      return Status::OutOfRange("record index " + std::to_string(index) +
                                " out of range [0," + std::to_string(count_) +
                                "]");
    }
    PageId page = PageOf(index);
    PageGuard guard;
    if (index == count_ && SlotOf(index) == 0) {
      IOLAP_ASSIGN_OR_RETURN(guard, pool.PinNew(file_, page));
    } else {
      IOLAP_ASSIGN_OR_RETURN(guard, pool.Pin(file_, page));
    }
    std::memcpy(guard.data() + SlotOf(index) * sizeof(T), &value, sizeof(T));
    guard.MarkDirty();
    if (index == count_) ++count_;
    return Status::Ok();
  }

  Status Append(BufferPool& pool, const T& value) {
    return Put(pool, count_, value);
  }

  /// Sequential reader holding a single pinned page; advancing across a page
  /// boundary swaps the pin. `mutate` selects read-modify-write scans: the
  /// page is marked dirty and `Write()` becomes available.
  class Cursor {
   public:
    Cursor(const TypedFile<T>* file, BufferPool* pool, int64_t start,
           int64_t end, bool mutate)
        : file_(file), pool_(pool), index_(start), end_(end),
          mutate_(mutate) {}

    bool done() const { return index_ >= end_; }
    int64_t index() const { return index_; }

    /// Reads the current record.
    Status Read(T* out) {
      IOLAP_RETURN_IF_ERROR(EnsurePage());
      std::memcpy(out, guard_.data() + SlotOf(index_) * sizeof(T), sizeof(T));
      return Status::Ok();
    }

    /// Overwrites the current record (mutating cursors only).
    Status Write(const T& value) {
      if (!mutate_) {
        return Status::FailedPrecondition("Write on a read-only cursor");
      }
      IOLAP_RETURN_IF_ERROR(EnsurePage());
      std::memcpy(guard_.data() + SlotOf(index_) * sizeof(T), &value,
                  sizeof(T));
      guard_.MarkDirty();
      return Status::Ok();
    }

    void Advance() {
      ++index_;
      if (SlotOf(index_) == 0) guard_.Release();
    }

    /// Reads the current record and advances.
    Status Next(T* out) {
      IOLAP_RETURN_IF_ERROR(Read(out));
      Advance();
      return Status::Ok();
    }

   private:
    Status EnsurePage() {
      if (index_ >= end_) return Status::OutOfRange("cursor exhausted");
      if (!guard_.valid()) {
        IOLAP_ASSIGN_OR_RETURN(guard_,
                               pool_->Pin(file_->file_id(), PageOf(index_)));
      }
      return Status::Ok();
    }

    const TypedFile<T>* file_;
    BufferPool* pool_;
    int64_t index_;
    int64_t end_;
    bool mutate_;
    PageGuard guard_;
  };

  Cursor Scan(BufferPool& pool, int64_t start = 0, int64_t end = -1) const {
    return Cursor(this, &pool, start, end < 0 ? count_ : end,
                  /*mutate=*/false);
  }
  Cursor MutableScan(BufferPool& pool, int64_t start = 0,
                     int64_t end = -1) const {
    return Cursor(this, &pool, start, end < 0 ? count_ : end, /*mutate=*/true);
  }

  /// Buffered appender: pins the tail page once per page's worth of appends.
  class Appender {
   public:
    Appender(TypedFile<T>* file, BufferPool* pool)
        : file_(file), pool_(pool) {}

    Status Append(const T& value) {
      int64_t index = file_->count_;
      if (SlotOf(index) == 0) {
        guard_.Release();
        IOLAP_ASSIGN_OR_RETURN(guard_,
                               pool_->PinNew(file_->file_id(), PageOf(index)));
      } else if (!guard_.valid()) {
        IOLAP_ASSIGN_OR_RETURN(guard_,
                               pool_->Pin(file_->file_id(), PageOf(index)));
      }
      std::memcpy(guard_.data() + SlotOf(index) * sizeof(T), &value,
                  sizeof(T));
      guard_.MarkDirty();
      ++file_->count_;
      return Status::Ok();
    }

    void Close() { guard_.Release(); }

   private:
    TypedFile<T>* file_;
    BufferPool* pool_;
    PageGuard guard_;
  };

  Appender MakeAppender(BufferPool& pool) { return Appender(this, &pool); }

 private:
  FileId file_ = kInvalidFileId;
  int64_t count_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_PAGED_FILE_H_
