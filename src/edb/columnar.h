#ifndef IOLAP_EDB_COLUMNAR_H_
#define IOLAP_EDB_COLUMNAR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "edb/query.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/extent.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

// Columnar mirror of the EDB: the same rows as the row-major
// TypedFile<EdbRecord>, in the same order, stored column-major in
// compressed extents (storage/extent.h) so aggregate scans pay only for
// the columns they project. The row-major file stays the writer /
// maintenance format; `WriteColumnarEdb` is the conversion step, and every
// read goes through the BufferPool so IoStats keeps counting the paper's
// demand I/O. On-disk layout: docs/FORMAT.md ("Columnar EDB extents").

/// Column ordinals within an extent footer. A k-dimensional EDB has
/// 3 + k columns: leaf column d lives at kEdbColLeaf0 + d.
enum EdbColumn : int {
  kEdbColFactId = 0,   // kDeltaZigZag64
  kEdbColMeasure = 1,  // kPlain64 (double bits)
  kEdbColWeight = 2,   // kPlain64 (double bits)
  kEdbColLeaf0 = 3,    // kDict32 or kPlain32, whichever is smaller
};
static_assert(kEdbColLeaf0 + kMaxDims <= kMaxExtentColumns);

struct ColumnarWriteOptions {
  /// Rows per extent (the last extent may be shorter). Larger extents
  /// amortize footer pages; smaller ones tighten partial scans. Must be
  /// > 0. The default holds every column of a full extent plus its footer
  /// in well under a small pool.
  int64_t rows_per_extent = 16384;
};

/// Which EDB columns a scan wants decoded.
struct EdbProjection {
  bool fact_id = false;
  bool measure = false;
  bool weight = false;
  bool leaf[kMaxDims] = {};

  static EdbProjection All(int num_dims) {
    EdbProjection p;
    p.fact_id = p.measure = p.weight = true;
    for (int d = 0; d < num_dims && d < kMaxDims; ++d) p.leaf[d] = true;
    return p;
  }
};

/// Read-side handle on a columnar EDB file. Immutable after Open and safe
/// to share across threads (scans decode into per-call scratch; page pins
/// go through the thread-safe BufferPool).
class ColumnarEdb {
 public:
  ColumnarEdb() = default;

  /// Opens an existing columnar file: reads the file footer (last page)
  /// and the extent directory through the pool, validating both.
  static Result<ColumnarEdb> Open(StorageEnv& env, FileId file);

  FileId file_id() const { return file_; }
  int num_dims() const { return num_dims_; }
  int64_t num_rows() const { return total_rows_; }
  int64_t num_extents() const { return static_cast<int64_t>(dir_.size()); }
  int64_t rows_per_extent() const { return rows_per_extent_; }
  /// Total file size: column pages + extent footers + directory + footer.
  int64_t size_in_pages() const { return total_pages_; }
  bool has_tombstones() const {
    return (flags_ & kExtentFlagTombstones) != 0;
  }

  /// Tombstone test on a projected row: the columnar form of
  /// EdbRecord::IsTombstone. The conversion step enforces Definition 4
  /// (live rows have weight > 0, tombstones are exactly the weight-0 /
  /// fact_id = -1 rows of that rule), so projecting `weight` alone
  /// suffices — columnar readers need not pay for the fact_id column.
  static bool IsTombstone(double weight) { return weight == 0; }

  /// One decoded row handed to ScanRows callbacks. Only projected fields
  /// are meaningful; the rest are unspecified.
  struct Row {
    int64_t row = 0;  // global row index, always set
    FactId fact_id = 0;
    double measure = 0;
    double weight = 0;
    int32_t leaf[kMaxDims] = {};
  };

  /// Streams rows [begin, end) in ascending row order (end < 0 means
  /// num_rows()), decoding only the projected columns and pinning only the
  /// pages their byte windows cover. `fn(const Row&)` sees every row,
  /// tombstones included — callers skip via IsTombstone, mirroring the
  /// row-major readers.
  template <typename Fn>
  Status ScanRows(BufferPool& pool, int64_t begin, int64_t end,
                  const EdbProjection& proj, Fn&& fn) const {
    if (end < 0) end = total_rows_;
    begin = std::max<int64_t>(begin, 0);
    end = std::min(end, total_rows_);
    if (begin >= end) return Status::Ok();
    DecodedColumns cols;
    for (size_t e = FirstExtentContaining(begin);
         e < dir_.size() && dir_[e].first_row < end; ++e) {
      const ExtentDirEntry& ext = dir_[e];
      const int64_t r0 = std::max(begin, ext.first_row);
      const int64_t r1 = std::min(end, ext.first_row + ext.row_count);
      IOLAP_RETURN_IF_ERROR(LoadExtent(pool, ext, r0, r1, proj, &cols));
      Row row;
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t i = r - r0;
        row.row = r;
        if (proj.fact_id) row.fact_id = cols.fact_id[i];
        if (proj.measure) row.measure = cols.measure[i];
        if (proj.weight) row.weight = cols.weight[i];
        for (int d = 0; d < num_dims_; ++d) {
          if (proj.leaf[d]) row.leaf[d] = cols.leaf[d][i];
        }
        fn(row);
      }
    }
    return Status::Ok();
  }

  /// Materializes rows [begin, end) as EdbRecords (full projection) —
  /// round-trip tests and row-compatible consumers.
  Status ReadRecords(BufferPool& pool, int64_t begin, int64_t end,
                     std::vector<EdbRecord>* out) const;

 private:
  struct DecodedColumns {
    std::vector<int64_t> fact_id;
    std::vector<double> measure;
    std::vector<double> weight;
    std::vector<int32_t> leaf[kMaxDims];
  };

  /// Decodes the projected columns of one extent for global rows
  /// [row_begin, row_end) into `out` (index 0 = row_begin).
  Status LoadExtent(BufferPool& pool, const ExtentDirEntry& ext,
                    int64_t row_begin, int64_t row_end,
                    const EdbProjection& proj, DecodedColumns* out) const;

  /// Index of the extent whose row range contains `row` (dir_ is sorted
  /// and dense in first_row).
  size_t FirstExtentContaining(int64_t row) const;

  FileId file_ = kInvalidFileId;
  int num_dims_ = 0;
  int64_t total_rows_ = 0;
  int64_t rows_per_extent_ = 0;
  int64_t total_pages_ = 0;
  uint32_t flags_ = 0;
  std::vector<ExtentDirEntry> dir_;
};

/// The projection an aggregate/rollup scan needs: weight + measure, the
/// leaf columns of dimensions `region` actually constrains
/// (RegionConstrainsDim), and the group-by dimension `group_dim` (pass -1
/// for a point aggregate). Never fact_id — tombstones are identified by
/// weight alone (see ColumnarEdb::IsTombstone).
inline EdbProjection AggregateScanProjection(const StarSchema& schema,
                                             const QueryRegion& region,
                                             int group_dim) {
  EdbProjection p;
  p.weight = true;
  p.measure = true;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (RegionConstrainsDim(schema, region, d)) p.leaf[d] = true;
  }
  if (group_dim >= 0) p.leaf[group_dim] = true;
  return p;
}

/// Converts the row-major EDB into a new columnar file (one pass over
/// `edb` through the pool) and opens it. Rejects rows that violate the
/// tombstone invariant (weight == 0 with fact_id != -1) so IsTombstone
/// stays sound for every columnar reader. The written file is flushed;
/// the row-major file is untouched.
Result<ColumnarEdb> WriteColumnarEdb(StorageEnv& env, const StarSchema& schema,
                                     const TypedFile<EdbRecord>& edb,
                                     const ColumnarWriteOptions& options = {});

}  // namespace iolap

#endif  // IOLAP_EDB_COLUMNAR_H_
