#ifndef IOLAP_STORAGE_EXTERNAL_SORT_H_
#define IOLAP_STORAGE_EXTERNAL_SORT_H_

#include <algorithm>
#include <concepts>
#include <cstring>
#include <limits>
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
/// every page twice).
///
/// The sorter bypasses the buffer pool (its memory *is* the budget); the
/// caller's pool pages for the file are flushed and evicted first so both
/// channels stay coherent. All traffic is counted by the DiskManager.
///
/// Pages move in multi-page transfers (half the budget in run generation
/// and the in-memory fast path, budget/(k+1) per input in a k-way merge),
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

  template <typename Less>
    requires SorterKeyPrefix<Less, T>
  Status Sort(TypedFile<T>* file, Less less) {
    return SortRange(file, 0, file->size(), less);
  }

  /// Sorts records [begin, end) of `file` in place. `begin` must be
  /// page-aligned (summary-table segments are laid out page-aligned by the
  /// preprocessor for exactly this reason).
  template <typename Less>
    requires SorterKeyPrefix<Less, T>
  Status SortRange(TypedFile<T>* file, int64_t begin, int64_t end,
                   Less less) {
    const int64_t count = end - begin;
    if (begin % kRpp != 0) {
      return Status::InvalidArgument("sort range start not page-aligned");
    }
    if (begin < 0 || end < begin || end > file->size()) {
      return Status::OutOfRange("sort range outside file");
    }
    IOLAP_RETURN_IF_ERROR(pool_->EvictFile(file->file_id()));
    if (count <= 1) return Status::Ok();

    const int64_t budget_records = budget_pages_ * kRpp;

    // Fast path: the whole range fits in the sort budget.
    if (count <= budget_records) {
      TraceSpan span("sort.in_memory");
      span.AddArg("records", count);
      return SortInMemory(file->file_id(), begin, count, less);
    }

    // Pass 0: run generation. Runs are written one after another, so the
    // scratch file grows densely.
    struct Run {
      int64_t start_page;  // within the scratch file
      int64_t records;
    };
    IOLAP_ASSIGN_OR_RETURN(FileId scratch_a, disk_->CreateFile("sort_a"));
    IOLAP_ASSIGN_OR_RETURN(FileId scratch_b, disk_->CreateFile("sort_b"));
    std::vector<Run> runs;
    {
      TraceSpan run_gen_span("sort.run_gen");
      run_gen_span.AddArg("records", count);
      int64_t next_page = 0;
      for (int64_t offset = 0; offset < count; offset += budget_records) {
        int64_t n = std::min(budget_records, count - offset);
        IOLAP_RETURN_IF_ERROR(GenerateRun(file->file_id(), begin + offset,
                                          scratch_a, next_page, n, less));
        runs.push_back(Run{next_page, n});
        next_page += (n + kRpp - 1) / kRpp;
      }
    }

    // Merge passes. The final pass (one output run) writes straight back
    // into the original file.
    TraceSpan merge_span("sort.merge");
    merge_span.AddArg("runs", static_cast<int64_t>(runs.size()));
    FileId src = scratch_a;
    FileId dst = scratch_b;
    const int64_t fan_in = budget_pages_ - 1;
    while (runs.size() > 1) {
      bool final_pass = static_cast<int64_t>(runs.size()) <= fan_in;
      FileId out_file = final_pass ? file->file_id() : dst;
      std::vector<Run> next_runs;
      int64_t out_page = final_pass ? begin / kRpp : 0;
      for (size_t group_begin = 0; group_begin < runs.size();
           group_begin += static_cast<size_t>(fan_in)) {
        size_t group_end =
            std::min(runs.size(), group_begin + static_cast<size_t>(fan_in));
        int64_t merged = 0;
        IOLAP_RETURN_IF_ERROR(MergeRuns(
            src, out_file, out_page,
            std::vector<Run>(runs.begin() + group_begin,
                             runs.begin() + group_end),
            less, &merged));
        next_runs.push_back(Run{out_page, merged});
        out_page += (merged + kRpp - 1) / kRpp;
      }
      runs = std::move(next_runs);
      std::swap(src, dst);
    }

    IOLAP_RETURN_IF_ERROR(disk_->DeleteFile(scratch_a));
    IOLAP_RETURN_IF_ERROR(disk_->DeleteFile(scratch_b));
    return Status::Ok();
  }

 private:
  static constexpr int64_t kRpp = TypedFile<T>::kRecordsPerPage;

  /// Pages moved per disk transfer outside the merge (run generation and
  /// the fast path).
  int64_t IoBlockPages() const {
    return std::max<int64_t>(1, budget_pages_ / 2);
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

  /// Stably sorts (prefix, index) pairs into the order `less` defines over
  /// the records behind them: byte-skipping LSD radix on the 8-byte prefix,
  /// then a fallback comparison sort inside each equal-prefix group.
  /// `rec_at(idx)` must return the record at input position `idx`.
  template <typename Less, typename RecAt>
  static void SortKeyed(std::vector<Keyed>* keys, const Less& less,
                        const RecAt& rec_at) {
    const int64_t n = static_cast<int64_t>(keys->size());
    std::vector<Keyed> tmp(n);
    for (int shift = 0; shift < 64; shift += 8) {
      int32_t count[257] = {0};
      for (int64_t i = 0; i < n; ++i) {
        ++count[(((*keys)[i].key >> shift) & 255) + 1];
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
        tmp[count[((*keys)[i].key >> shift) & 255]++] = (*keys)[i];
      }
      keys->swap(tmp);
    }
    for (int64_t s = 0; s < n;) {
      int64_t e = s + 1;
      while (e < n && (*keys)[e].key == (*keys)[s].key) ++e;
      if (e - s > 1) {
        std::sort(keys->begin() + s, keys->begin() + e,
                  [&](const Keyed& a, const Keyed& b) {
                    if (less(*rec_at(a.idx), *rec_at(b.idx))) return true;
                    if (less(*rec_at(b.idx), *rec_at(a.idx))) return false;
                    return a.idx < b.idx;
                  });
      }
      s = e;
    }
  }

  /// Builds (prefix, index) keys straight from `n` records laid out in
  /// `pages`, sorts them stably, and gathers the records in sorted order
  /// into `out_pages` (same page layout; non-record bytes of `out_pages`
  /// are left untouched).
  template <typename Less>
  static void KeyedSortPages(const std::byte* pages, int64_t n,
                             const Less& less, std::byte* out_pages) {
    auto rec_at = [&](int64_t i) -> const T* {
      return reinterpret_cast<const T*>(pages + (i / kRpp) * kPageSize +
                                        (i % kRpp) * sizeof(T));
    };
    std::vector<Keyed> keys(n);
    {
      int64_t i = 0;
      for (int64_t p = 0; p * kRpp < n; ++p) {
        const T* rec = reinterpret_cast<const T*>(pages + p * kPageSize);
        int64_t take = std::min<int64_t>(kRpp, n - p * kRpp);
        for (int64_t s = 0; s < take; ++s, ++i) {
          keys[i] = Keyed{static_cast<uint64_t>(less.KeyPrefix(rec[s])), i};
        }
      }
    }
    SortKeyed(&keys, less, rec_at);
    int64_t j = 0;
    for (int64_t p = 0; p * kRpp < n; ++p) {
      T* rec = reinterpret_cast<T*>(out_pages + p * kPageSize);
      int64_t take = std::min<int64_t>(kRpp, n - p * kRpp);
      for (int64_t s = 0; s < take; ++s, ++j) {
        std::memcpy(&rec[s], rec_at(keys[j].idx), sizeof(T));
      }
    }
  }

  /// Fast path: reads the whole range, sorts, writes it back. Tail records
  /// sharing the final page (beyond the sorted range) ride along in the
  /// page images, so they are preserved without an extra read.
  template <typename Less>
  Status SortInMemory(FileId file, int64_t begin, int64_t count, Less less) {
    const int64_t first_page = begin / kRpp;
    const int64_t npages = (count + kRpp - 1) / kRpp;
    std::vector<std::byte> pages(static_cast<size_t>(npages) * kPageSize);
    IOLAP_RETURN_IF_ERROR(ReadPageRange(file, first_page, npages,
                                        pages.data()));
    // Gather into a copy of the page images so tail records and slack
    // bytes are written back unchanged.
    std::vector<std::byte> sorted(pages);
    KeyedSortPages(pages.data(), count, less, sorted.data());
    return WritePageRange(file, first_page, npages, sorted.data());
  }

  /// Sorts one budget-sized chunk of input and appends it to the scratch
  /// file at `out_page`. A partial final page is written with a zeroed tail
  /// (the scratch file is fresh, so there is nothing to preserve and no
  /// read-modify-write).
  template <typename Less>
  Status GenerateRun(FileId in, int64_t in_begin, FileId out,
                     int64_t out_page, int64_t n, Less less) {
    const int64_t first_page = in_begin / kRpp;  // in_begin is page-aligned
    const int64_t npages = (n + kRpp - 1) / kRpp;
    std::vector<std::byte> pages(static_cast<size_t>(npages) * kPageSize);
    IOLAP_RETURN_IF_ERROR(ReadPageRange(in, first_page, npages, pages.data()));
    // Keys are built straight from the page images and the records gathered
    // straight into a fresh (zeroed) paginated buffer.
    std::vector<std::byte> sorted(pages.size());  // value-init: slack = 0
    KeyedSortPages(pages.data(), n, less, sorted.data());
    return WritePageRange(out, out_page, npages, sorted.data());
  }

  /// Merges one group of runs with a loser tree: each run streams through
  /// a block buffer of several pages and the merged output is flushed a
  /// block at a time, so the page I/O count is that of a page-at-a-time
  /// merge with far fewer syscalls. Key ties go to the lower run index,
  /// which keeps the merged order stable.
  template <typename Run, typename Less>
  Status MergeRuns(FileId src, FileId out_file, int64_t out_start_page,
                   std::vector<Run> group, Less less, int64_t* merged_out) {
    const size_t k = group.size();
    // Split the budget across the k inputs plus the output stream.
    const int64_t block =
        std::max<int64_t>(1, budget_pages_ / static_cast<int64_t>(k + 1));

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
    // pointer bump is inlined in the merge loop so no Status is
    // constructed per record. Returns non-OK only on a refill failure.
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

    std::vector<std::byte> out_buf(static_cast<size_t>(block) * kPageSize);
    std::memset(out_buf.data(), 0, out_buf.size());
    std::byte* out_rec = out_buf.data();
    int64_t out_page_left = kRpp;          // record slots left on this page
    int64_t out_pages_filled = 0;          // full pages in out_buf
    int64_t out_pg = out_start_page;
    int64_t total = 0;
    while (!cur[winner].done) {
      std::memcpy(out_rec, cur[winner].rec, sizeof(T));
      ++total;
      if (--out_page_left > 0) {
        out_rec += sizeof(T);
      } else if (++out_pages_filled < block) {
        out_rec = out_buf.data() + out_pages_filled * kPageSize;
        out_page_left = kRpp;
      } else {
        IOLAP_RETURN_IF_ERROR(
            disk_->WritePages(out_file, out_pg, block, out_buf.data()));
        out_pg += block;
        std::memset(out_buf.data(), 0, out_buf.size());
        out_rec = out_buf.data();
        out_page_left = kRpp;
        out_pages_filled = 0;
      }
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
    int64_t out_slot = out_pages_filled * kRpp + (kRpp - out_page_left);
    if (out_slot > 0) {
      int64_t full = out_slot / kRpp;
      int64_t rem = out_slot % kRpp;
      if (full > 0) {
        IOLAP_RETURN_IF_ERROR(
            disk_->WritePages(out_file, out_pg, full, out_buf.data()));
        out_pg += full;
      }
      if (rem > 0) {
        // Partial final page: preserve any pre-existing records in the tail
        // slots (they belong to data beyond the sorted range).
        std::byte* last = out_buf.data() + full * kPageSize;
        IOLAP_ASSIGN_OR_RETURN(int64_t size, disk_->SizeInPages(out_file));
        if (out_pg < size) {
          alignas(16) std::byte existing[kPageSize];
          IOLAP_RETURN_IF_ERROR(disk_->ReadPage(out_file, out_pg, existing));
          std::memcpy(last + rem * sizeof(T), existing + rem * sizeof(T),
                      (kRpp - rem) * sizeof(T));
        }
        IOLAP_RETURN_IF_ERROR(disk_->WritePage(out_file, out_pg, last));
      }
    }
    *merged_out = total;
    return Status::Ok();
  }

  DiskManager* disk_;
  BufferPool* pool_;
  int64_t budget_pages_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_EXTERNAL_SORT_H_
