#ifndef IOLAP_STORAGE_EXTERNAL_SORT_H_
#define IOLAP_STORAGE_EXTERNAL_SORT_H_

#include <algorithm>
#include <concepts>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/paged_file.h"

namespace iolap {

/// Normalized-key protocol, required of every sorter comparator: it
/// exposes `uint64_t KeyPrefix(const T&)` returning a prefix of its sort
/// key packed so that unsigned comparison of prefixes refines the full
/// order — `KeyPrefix(a) < KeyPrefix(b)` must imply `less(a, b)`, and equal
/// prefixes defer to the full comparator. The sorter sorts compact
/// (prefix, index) pairs during run generation and resolves most merge
/// matches with one integer compare, falling back to `less` only on prefix
/// ties. A constant prefix is valid: every order then comes from `less`.
template <typename Less, typename T>
concept SorterKeyPrefix = requires(const Less& less, const T& value) {
  { less.KeyPrefix(value) } -> std::convertible_to<uint64_t>;
};

/// External merge sort over a TypedFile within one budget of
/// `budget_pages` pages (B, at least 3) of working memory: run generation
/// sorts B-page chunks one after another, then (B-1)-way merge passes
/// combine them. For the data-to-memory ratios in the paper's experiments
/// this is the standard two-pass sort its cost model assumes (read+write
/// every page twice). The sorted sequence either overwrites the input
/// (Sort, SortRange) or goes record by record to a consumer (SortInto),
/// which saves the final pass's writes and the reader's re-read.
///
/// The sorter bypasses the buffer pool (its memory *is* the budget); the
/// caller's pool pages for the file are flushed and evicted first so both
/// channels stay coherent. All traffic is counted by the DiskManager.
///
/// Pages move in multi-page transfers (half the budget in run generation
/// and the in-memory fast path; per input of a k-way merge, budget/(k+1)
/// when it writes a file and budget/k when it feeds a consumer),
/// which changes syscall counts but not the page I/O count. Chunks sort on
/// normalized keys (see SorterKeyPrefix), and the merge is a loser tree
/// with a lower-run-index tie-break, so the output is exactly the stable
/// sort of the input.
template <typename T>
class ExternalSorter {
 public:
  ExternalSorter(DiskManager* disk, BufferPool* pool, int64_t budget_pages)
      : disk_(disk),
        pool_(pool),
        budget_pages_(std::max<int64_t>(budget_pages, 3)) {}

  /// The default `prepare` of Sort and SortRange: records stay as read.
  struct KeepAsRead {
    void operator()(T&) const {}
  };

  /// Sorts `file` in place. `prepare` (callable as `void(T&)`) rewrites
  /// each record once as it is first read, before it is keyed, so `less`
  /// sees only prepared records and the file ends up holding them.
  template <typename Less, typename Prepare = KeepAsRead>
    requires SorterKeyPrefix<Less, T>
  Status Sort(TypedFile<T>* file, Less less, Prepare prepare = {}) {
    return SortRange(file, 0, file->size(), less, prepare);
  }

  /// Sorts records [begin, end) of `file` in place. `begin` must be
  /// page-aligned (summary-table segments are laid out page-aligned by the
  /// preprocessor for exactly this reason).
  template <typename Less, typename Prepare = KeepAsRead>
    requires SorterKeyPrefix<Less, T>
  Status SortRange(TypedFile<T>* file, int64_t begin, int64_t end,
                   Less less, Prepare prepare = {}) {
    if (begin % kRpp != 0) {
      return Status::InvalidArgument("sort range start not page-aligned");
    }
    if (begin < 0 || end < begin || end > file->size()) {
      return Status::OutOfRange("sort range outside file");
    }
    IOLAP_RETURN_IF_ERROR(pool_->EvictFile(file->file_id()));
    // One record is in order already; it is read only to be prepared.
    const int64_t in_order = std::is_same_v<Prepare, KeepAsRead> ? 1 : 0;
    if (end - begin <= in_order) return Status::Ok();
    InPlace out;
    return SortTo(file->file_id(), begin, end - begin, less, out, prepare);
  }

  /// Hands the records of `file` to `consume` (callable as
  /// `Status(const T&)`) in the order Sort would leave them in, without
  /// writing that order anywhere: the in-memory fast path hands them out of
  /// the sorted chunk, and the final merge pass feeds `consume` instead of
  /// a file. `file` is read and never modified. A non-OK status from
  /// `consume` ends the sort and is returned.
  template <typename Less, typename Consume>
    requires SorterKeyPrefix<Less, T>
  Status SortInto(const TypedFile<T>& file, Less less, Consume consume) {
    IOLAP_RETURN_IF_ERROR(pool_->EvictFile(file.file_id()));
    if (file.empty()) return Status::Ok();
    return SortTo(file.file_id(), 0, file.size(), less, consume,
                  KeepAsRead{});
  }

 private:
  static constexpr int64_t kRpp = TypedFile<T>::kRecordsPerPage;

  /// Output of Sort and SortRange: the sorted records overwrite the range.
  struct InPlace {};

  /// One sorted run in a scratch file.
  struct Run {
    int64_t start_page;
    int64_t records;
  };

  /// Sorts records [begin, begin + count) of `file` (count >= 1; the pool
  /// holds none of its pages) into `out`: InPlace, or a consumer.
  template <typename Less, typename Out, typename Prepare>
  Status SortTo(FileId file, int64_t begin, int64_t count, Less less,
                Out& out, const Prepare& prepare) {
    const int64_t budget_records = budget_pages_ * kRpp;

    // Fast path: the whole range fits in the sort budget.
    if (count <= budget_records) {
      TraceSpan span("sort.in_memory");
      span.AddArg("records", count);
      return SortInMemory(file, begin, count, less, out, prepare);
    }

    // Pass 0: run generation. Runs are written one after another, so the
    // scratch file grows densely.
    IOLAP_ASSIGN_OR_RETURN(FileId scratch_a, disk_->CreateFile("sort_a"));
    IOLAP_ASSIGN_OR_RETURN(FileId scratch_b, disk_->CreateFile("sort_b"));
    std::vector<Run> runs;
    {
      TraceSpan run_gen_span("sort.run_gen");
      run_gen_span.AddArg("records", count);
      int64_t next_page = 0;
      for (int64_t offset = 0; offset < count; offset += budget_records) {
        int64_t n = std::min(budget_records, count - offset);
        IOLAP_RETURN_IF_ERROR(GenerateRun(file, begin + offset, scratch_a,
                                          next_page, n, less, prepare));
        runs.push_back(Run{next_page, n});
        next_page += (n + kRpp - 1) / kRpp;
      }
    }

    // Merge passes. The final pass (at most fan-in runs) writes into `out`:
    // back over the sorted range, or into the consumer.
    TraceSpan merge_span("sort.merge");
    merge_span.AddArg("runs", static_cast<int64_t>(runs.size()));
    FileId src = scratch_a;
    FileId dst = scratch_b;
    const size_t fan_in = static_cast<size_t>(budget_pages_ - 1);
    while (true) {
      const bool final_pass = runs.size() <= fan_in;
      if constexpr (!std::is_same_v<Out, InPlace>) {
        if (final_pass) {
          IOLAP_RETURN_IF_ERROR(MergeRuns(src, runs, less, out));
          break;
        }
      }
      const FileId out_file = final_pass ? file : dst;
      int64_t out_page = final_pass ? begin / kRpp : 0;
      std::vector<Run> next_runs;
      for (size_t g = 0; g < runs.size(); g += fan_in) {
        std::vector<Run> group(
            runs.begin() + g, runs.begin() + std::min(runs.size(), g + fan_in));
        PageWriter writer(disk_, out_file, out_page,
                          MergeBlockPages(group.size(), /*writes_file=*/true));
        IOLAP_RETURN_IF_ERROR(MergeRuns(src, group, less, writer));
        IOLAP_RETURN_IF_ERROR(writer.Finish());
        next_runs.push_back(Run{out_page, writer.records()});
        out_page += (writer.records() + kRpp - 1) / kRpp;
      }
      if (final_pass) break;
      runs = std::move(next_runs);
      std::swap(src, dst);
    }

    IOLAP_RETURN_IF_ERROR(disk_->DeleteFile(scratch_a));
    IOLAP_RETURN_IF_ERROR(disk_->DeleteFile(scratch_b));
    return Status::Ok();
  }

  /// Pages moved per disk transfer outside the merge (run generation and
  /// the fast path).
  int64_t IoBlockPages() const {
    return std::max<int64_t>(1, budget_pages_ / 2);
  }

  /// Pages per input block, and per output block, of a k-way merge: the
  /// budget split across the k inputs, plus the output stream when the
  /// merge writes a file (a consumer takes records straight from the
  /// input blocks).
  int64_t MergeBlockPages(size_t k, bool writes_file) const {
    const int64_t streams = static_cast<int64_t>(k) + (writes_file ? 1 : 0);
    return std::max<int64_t>(1, budget_pages_ / streams);
  }

  Status ReadPageRange(FileId file, int64_t first_page, int64_t npages,
                       std::byte* buf) {
    const int64_t blk = IoBlockPages();
    for (int64_t p = 0; p < npages; p += blk) {
      int64_t n = std::min(blk, npages - p);
      IOLAP_RETURN_IF_ERROR(
          disk_->ReadPages(file, first_page + p, n, buf + p * kPageSize));
    }
    return Status::Ok();
  }

  Status WritePageRange(FileId file, int64_t first_page, int64_t npages,
                        const std::byte* buf) {
    const int64_t blk = IoBlockPages();
    for (int64_t p = 0; p < npages; p += blk) {
      int64_t n = std::min(blk, npages - p);
      IOLAP_RETURN_IF_ERROR(
          disk_->WritePages(file, first_page + p, n, buf + p * kPageSize));
    }
    return Status::Ok();
  }

  /// Every chunk sort in the sorter is *stable* (equal records keep their
  /// input order). Combined with the merge's lower-run-index tie rule this
  /// makes the sorted output exactly the stable sort of the input, even for
  /// comparators with ties.
  struct Keyed {
    uint64_t key;  // normalized key prefix (see SorterKeyPrefix)
    int64_t idx;   // input position, also the final tie-break
  };

  /// Record `i` of records laid out `kRpp` to a page in `pages`.
  static const T* RecordAt(const std::byte* pages, int64_t i) {
    return reinterpret_cast<const T*>(pages + (i / kRpp) * kPageSize +
                                      (i % kRpp) * sizeof(T));
  }

  /// Prepares the `n` records laid out in `pages` in place, builds
  /// (prefix, index) keys straight from them and sorts those stably into
  /// the order `less` defines over the records behind them: byte-skipping
  /// LSD radix on the 8-byte prefix, then a fallback comparison sort inside
  /// each equal-prefix group.
  template <typename Less, typename Prepare>
  static std::vector<Keyed> SortedKeys(std::byte* pages, int64_t n,
                                       const Less& less, const Prepare& prepare) {
    std::vector<Keyed> keys(n);
    {
      int64_t i = 0;
      for (int64_t p = 0; p * kRpp < n; ++p) {
        T* rec = reinterpret_cast<T*>(pages + p * kPageSize);
        int64_t take = std::min<int64_t>(kRpp, n - p * kRpp);
        for (int64_t s = 0; s < take; ++s, ++i) {
          prepare(rec[s]);
          keys[i] = Keyed{static_cast<uint64_t>(less.KeyPrefix(rec[s])), i};
        }
      }
    }
    std::vector<Keyed> tmp(n);
    for (int shift = 0; shift < 64; shift += 8) {
      int32_t count[257] = {0};
      for (int64_t i = 0; i < n; ++i) {
        ++count[((keys[i].key >> shift) & 255) + 1];
      }
      bool single_bucket = false;
      for (int b = 1; b <= 256; ++b) {
        if (count[b] == n) {
          single_bucket = true;
          break;
        }
      }
      if (single_bucket) continue;  // byte constant across the chunk
      for (int b = 1; b <= 256; ++b) count[b] += count[b - 1];
      for (int64_t i = 0; i < n; ++i) {
        tmp[count[(keys[i].key >> shift) & 255]++] = keys[i];
      }
      keys.swap(tmp);
    }
    for (int64_t s = 0; s < n;) {
      int64_t e = s + 1;
      while (e < n && keys[e].key == keys[s].key) ++e;
      if (e - s > 1) {
        std::sort(keys.begin() + s, keys.begin() + e,
                  [&](const Keyed& a, const Keyed& b) {
                    const T& ra = *RecordAt(pages, a.idx);
                    const T& rb = *RecordAt(pages, b.idx);
                    if (less(ra, rb)) return true;
                    if (less(rb, ra)) return false;
                    return a.idx < b.idx;
                  });
      }
      s = e;
    }
    return keys;
  }

  /// Copies the records of `pages` into `out_pages` in `keys` order (same
  /// page layout; non-record bytes of `out_pages` are left untouched).
  static void Gather(const std::byte* pages, const std::vector<Keyed>& keys,
                     std::byte* out_pages) {
    const int64_t n = static_cast<int64_t>(keys.size());
    int64_t j = 0;
    for (int64_t p = 0; p * kRpp < n; ++p) {
      T* rec = reinterpret_cast<T*>(out_pages + p * kPageSize);
      int64_t take = std::min<int64_t>(kRpp, n - p * kRpp);
      for (int64_t s = 0; s < take; ++s, ++j) {
        std::memcpy(&rec[s], RecordAt(pages, keys[j].idx), sizeof(T));
      }
    }
  }

  /// Fast path: reads the whole range and sorts it in memory. In place,
  /// the records are gathered into a copy of the page images and written
  /// back, so tail records sharing the final page (beyond the sorted range)
  /// ride along without an extra read. Otherwise they go straight to the
  /// consumer and nothing is written.
  template <typename Less, typename Out, typename Prepare>
  Status SortInMemory(FileId file, int64_t begin, int64_t count, Less less,
                      Out& out, const Prepare& prepare) {
    const int64_t first_page = begin / kRpp;
    const int64_t npages = (count + kRpp - 1) / kRpp;
    std::vector<std::byte> pages(static_cast<size_t>(npages) * kPageSize);
    IOLAP_RETURN_IF_ERROR(ReadPageRange(file, first_page, npages,
                                        pages.data()));
    const std::vector<Keyed> keys =
        SortedKeys(pages.data(), count, less, prepare);
    if constexpr (std::is_same_v<Out, InPlace>) {
      std::vector<std::byte> sorted(pages);
      Gather(pages.data(), keys, sorted.data());
      return WritePageRange(file, first_page, npages, sorted.data());
    } else {
      for (const Keyed& key : keys) {
        IOLAP_RETURN_IF_ERROR(out(*RecordAt(pages.data(), key.idx)));
      }
      return Status::Ok();
    }
  }

  /// Sorts one budget-sized chunk of input and appends it to the scratch
  /// file at `out_page`. A partial final page is written with a zeroed tail
  /// (the scratch file is fresh, so there is nothing to preserve and no
  /// read-modify-write).
  template <typename Less, typename Prepare>
  Status GenerateRun(FileId in, int64_t in_begin, FileId out,
                     int64_t out_page, int64_t n, Less less,
                     const Prepare& prepare) {
    const int64_t first_page = in_begin / kRpp;  // in_begin is page-aligned
    const int64_t npages = (n + kRpp - 1) / kRpp;
    std::vector<std::byte> pages(static_cast<size_t>(npages) * kPageSize);
    IOLAP_RETURN_IF_ERROR(ReadPageRange(in, first_page, npages, pages.data()));
    std::vector<std::byte> sorted(pages.size());  // value-init: slack = 0
    Gather(pages.data(), SortedKeys(pages.data(), n, less, prepare),
           sorted.data());
    return WritePageRange(out, out_page, npages, sorted.data());
  }

  /// Merge output to a file: records are buffered a block of pages at a
  /// time and written from `first_page` on, so the page I/O count is that
  /// of a page-at-a-time writer with far fewer syscalls.
  class PageWriter {
   public:
    PageWriter(DiskManager* disk, FileId file, int64_t first_page,
               int64_t block_pages)
        : disk_(disk),
          file_(file),
          page_(first_page),
          block_(block_pages),
          buf_(static_cast<size_t>(block_pages) * kPageSize),
          rec_(buf_.data()) {}

    Status operator()(const T& record) {
      std::memcpy(rec_, &record, sizeof(T));
      ++records_;
      if (--page_left_ > 0) {
        rec_ += sizeof(T);
        return Status::Ok();
      }
      page_left_ = kRpp;
      if (++pages_filled_ < block_) {
        rec_ = buf_.data() + pages_filled_ * kPageSize;
        return Status::Ok();
      }
      IOLAP_RETURN_IF_ERROR(
          disk_->WritePages(file_, page_, block_, buf_.data()));
      page_ += block_;
      std::memset(buf_.data(), 0, buf_.size());
      rec_ = buf_.data();
      pages_filled_ = 0;
      return Status::Ok();
    }

    /// Writes the buffered tail. A partial final page keeps the records
    /// already on disk in its tail slots (they belong to data beyond the
    /// sorted range).
    Status Finish() {
      if (pages_filled_ > 0) {
        IOLAP_RETURN_IF_ERROR(
            disk_->WritePages(file_, page_, pages_filled_, buf_.data()));
        page_ += pages_filled_;
      }
      const int64_t rem = kRpp - page_left_;
      if (rem == 0) return Status::Ok();
      std::byte* last = buf_.data() + pages_filled_ * kPageSize;
      IOLAP_ASSIGN_OR_RETURN(int64_t size, disk_->SizeInPages(file_));
      if (page_ < size) {
        alignas(16) std::byte existing[kPageSize];
        IOLAP_RETURN_IF_ERROR(disk_->ReadPage(file_, page_, existing));
        std::memcpy(last + rem * sizeof(T), existing + rem * sizeof(T),
                    (kRpp - rem) * sizeof(T));
      }
      return disk_->WritePage(file_, page_, last);
    }

    int64_t records() const { return records_; }

   private:
    DiskManager* disk_;
    FileId file_;
    int64_t page_;   // file page the buffer's first page goes to
    int64_t block_;  // pages per write
    std::vector<std::byte> buf_;  // value-init: slack = 0
    std::byte* rec_;              // next record slot in buf_
    int64_t page_left_ = kRpp;    // record slots left on this page
    int64_t pages_filled_ = 0;    // full pages in buf_
    int64_t records_ = 0;
  };

  /// Merges one group of runs with a loser tree into `emit` (a PageWriter
  /// or a consumer, called once per record in merged order). Each run
  /// streams through a block buffer of several pages. Key ties go to the
  /// lower run index, which keeps the merged order stable.
  template <typename Less, typename Emit>
  Status MergeRuns(FileId src, const std::vector<Run>& group, Less less,
                   Emit& emit) {
    const size_t k = group.size();
    const int64_t block =
        MergeBlockPages(k, /*writes_file=*/std::is_same_v<Emit, PageWriter>);

    struct RunCursor {
      std::vector<std::byte> buf;
      const std::byte* rec = nullptr;  // current record within buf
      int64_t page_left = 0;   // records left on the current buf page
      int64_t loaded_left = 0; // records left in buf (including this page)
      int64_t next_page = 0;   // next src page to load
      int64_t end_page = 0;    // one past the run's last page
      int64_t left = 0;        // records not yet loaded
      bool done = false;       // run fully consumed
    };
    std::vector<RunCursor> cur(k);
    // Normalized key of each run's current record (see SorterKeyPrefix):
    // most matches resolve on one integer compare.
    std::vector<uint64_t> key8(k);

    auto head_of = [&](size_t i) -> const T* {
      return reinterpret_cast<const T*>(cur[i].rec);
    };
    auto load_key = [&](size_t i) {
      key8[i] = static_cast<uint64_t>(less.KeyPrefix(*head_of(i)));
    };
    auto refill = [&](size_t i) -> Status {
      RunCursor& c = cur[i];
      if (c.left == 0) {
        c.done = true;
        key8[i] = std::numeric_limits<uint64_t>::max();
        return Status::Ok();
      }
      int64_t npages = std::min(block, c.end_page - c.next_page);
      IOLAP_RETURN_IF_ERROR(
          disk_->ReadPages(src, c.next_page, npages, c.buf.data()));
      c.next_page += npages;
      c.loaded_left = std::min(c.left, npages * kRpp);
      c.left -= c.loaded_left;
      c.rec = c.buf.data();
      c.page_left = std::min<int64_t>(kRpp, c.loaded_left);
      load_key(i);
      return Status::Ok();
    };
    // Page/block-boundary part of popping a record; the common within-page
    // pointer bump is inlined in the merge loop. Returns non-OK only on a
    // refill failure.
    auto advance_slow = [&](size_t i) -> Status {
      RunCursor& c = cur[i];
      if (c.loaded_left > 0) {
        // Next page of the already-loaded block.
        ptrdiff_t off = (c.rec - c.buf.data()) / kPageSize + 1;
        c.rec = c.buf.data() + off * kPageSize;
        c.page_left = std::min<int64_t>(kRpp, c.loaded_left);
        load_key(i);
        return Status::Ok();
      }
      return refill(i);
    };
    for (size_t i = 0; i < k; ++i) {
      cur[i].buf.resize(static_cast<size_t>(block) * kPageSize);
      cur[i].next_page = group[i].start_page;
      cur[i].end_page =
          group[i].start_page + (group[i].records + kRpp - 1) / kRpp;
      cur[i].left = group[i].records;
      IOLAP_RETURN_IF_ERROR(refill(i));
    }

    // Loser tree over the k runs. Operands are taken lowest index first, so
    // one strict less() per match both picks the winner and sends equal
    // keys to the lower run index, which keeps the merge stable. Exhausted
    // runs lose every match: their key is all ones, so only a tie at that
    // key needs to look at which run is done.
    auto winner_of = [&](size_t x, size_t y) -> size_t {
      size_t a = std::min(x, y);  // ties go to the lower run index
      size_t b = std::max(x, y);
      if (key8[a] != key8[b]) return key8[a] < key8[b] ? a : b;
      if (cur[a].done) return b;
      if (cur[b].done) return a;
      return less(*head_of(b), *head_of(a)) ? b : a;
    };
    std::vector<size_t> loser(k, 0);
    size_t winner = 0;
    if (k > 1) {
      std::vector<size_t> w(2 * k);
      for (size_t i = 0; i < k; ++i) w[k + i] = i;
      for (size_t node = k - 1; node >= 1; --node) {
        size_t a = w[2 * node];
        size_t b = w[2 * node + 1];
        size_t win = winner_of(a, b);
        w[node] = win;
        loser[node] = (win == a) ? b : a;
      }
      winner = w[1];
    }

    while (!cur[winner].done) {
      IOLAP_RETURN_IF_ERROR(emit(*head_of(winner)));
      RunCursor& c = cur[winner];
      --c.loaded_left;
      if (--c.page_left > 0) {
        c.rec += sizeof(T);
        load_key(winner);
      } else {
        IOLAP_RETURN_IF_ERROR(advance_slow(winner));
      }
      if (k > 1) {
        size_t cand = winner;
        for (size_t node = (k + winner) / 2; node >= 1; node /= 2) {
          size_t win = winner_of(cand, loser[node]);
          if (win != cand) {
            std::swap(cand, loser[node]);
            cand = win;
          }
        }
        winner = cand;
      }
    }
    return Status::Ok();
  }

  DiskManager* disk_;
  BufferPool* pool_;
  int64_t budget_pages_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_EXTERNAL_SORT_H_
