#include "edb/columnar.h"

#include <cstring>
#include <string>

namespace iolap {
namespace {

constexpr int64_t kPS = static_cast<int64_t>(kPageSize);

/// Copies stream bytes [range.begin, range.end) of a column whose pages
/// start at absolute page `base` into `buf`, pinning only the covering
/// pages.
Status FetchStreamBytes(BufferPool& pool, FileId file, PageId base,
                        const ColumnDesc& col, const ByteRange& range,
                        std::vector<std::byte>* buf) {
  buf->clear();
  if (range.empty()) return Status::Ok();
  if (range.begin < 0 || range.end > col.byte_length) {
    return Status::InvalidArgument("columnar: byte window out of stream");
  }
  buf->resize(static_cast<size_t>(range.size()));
  const PageId p0 = range.begin / kPS;
  const PageId p1 = (range.end - 1) / kPS;
  for (PageId p = p0; p <= p1; ++p) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool.Pin(file, base + p));
    const int64_t page_lo = p * kPS;
    const int64_t lo = std::max(range.begin, page_lo);
    const int64_t hi = std::min(range.end, page_lo + kPS);
    std::memcpy(buf->data() + (lo - range.begin), guard.data() + (lo - page_lo),
                static_cast<size_t>(hi - lo));
  }
  return Status::Ok();
}

/// Appends `bytes` as whole pages at *next_page (tail zero-padded, PinNew
/// zeroes the frame), advancing *next_page.
Status WriteStreamPages(BufferPool& pool, FileId file,
                        const std::vector<std::byte>& bytes,
                        PageId* next_page) {
  const int64_t total = static_cast<int64_t>(bytes.size());
  for (int64_t off = 0; off < total; off += kPS) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool.PinNew(file, *next_page));
    std::memcpy(guard.data(), bytes.data() + off,
                static_cast<size_t>(std::min(kPS, total - off)));
    guard.MarkDirty();
    ++*next_page;
  }
  return Status::Ok();
}

/// Writes one POD into a fresh zeroed page at *next_page.
template <typename T>
Status WritePodPage(BufferPool& pool, FileId file, const T& pod,
                    PageId* next_page) {
  static_assert(sizeof(T) <= kPageSize);
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, pool.PinNew(file, *next_page));
  std::memcpy(guard.data(), &pod, sizeof(T));
  guard.MarkDirty();
  ++*next_page;
  return Status::Ok();
}

}  // namespace

Result<ColumnarEdb> ColumnarEdb::Open(StorageEnv& env, FileId file) {
  IOLAP_ASSIGN_OR_RETURN(int64_t pages, env.disk().SizeInPages(file));
  if (pages < 1) {
    return Status::InvalidArgument("columnar EDB: no file footer page");
  }
  ColumnarFileFooter foot;
  {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env.pool().Pin(file, pages - 1));
    std::memcpy(&foot, guard.data(), sizeof(foot));
  }
  if (foot.magic != kColumnarFileMagic) {
    return Status::InvalidArgument("columnar EDB: bad file magic");
  }
  if (foot.version != kColumnarVersion) {
    return Status::InvalidArgument("columnar EDB: unsupported version " +
                                   std::to_string(foot.version));
  }
  // On-disk integers are untrusted: bound each one by the real file size
  // before any arithmetic, so no sum or product below can overflow. Every
  // extent occupies at least two pages, so num_extents <= pages.
  if (foot.num_dims < 1 || foot.num_dims > kMaxDims || foot.num_extents < 0 ||
      foot.num_extents > pages || foot.total_rows < 0 ||
      foot.directory_first_page < 0 || foot.directory_first_page >= pages ||
      foot.directory_pages < 0 ||
      foot.directory_pages >= pages - foot.directory_first_page ||
      foot.directory_pages != PagesForBytes(foot.num_extents *
                                            static_cast<int64_t>(
                                                sizeof(ExtentDirEntry)))) {
    return Status::InvalidArgument("columnar EDB: corrupt file footer");
  }
  ColumnarEdb out;
  out.file_ = file;
  out.num_dims_ = foot.num_dims;
  out.total_rows_ = foot.total_rows;
  out.rows_per_extent_ = foot.rows_per_extent;
  out.total_pages_ = pages;
  out.flags_ = foot.flags;
  out.dir_.resize(static_cast<size_t>(foot.num_extents));
  int64_t remaining = foot.num_extents;
  for (int64_t p = 0; p < foot.directory_pages; ++p) {
    IOLAP_ASSIGN_OR_RETURN(
        PageGuard guard, env.pool().Pin(file, foot.directory_first_page + p));
    const int64_t batch = std::min(remaining, kExtentDirEntriesPerPage);
    std::memcpy(out.dir_.data() + (foot.num_extents - remaining), guard.data(),
                static_cast<size_t>(batch) * sizeof(ExtentDirEntry));
    remaining -= batch;
  }
  // expect_row <= total_rows throughout, so the running sum cannot
  // overflow; an extent must hold its measure and weight columns (8 bytes
  // a row each) in the pages before its footer.
  int64_t expect_row = 0;
  for (const ExtentDirEntry& ext : out.dir_) {
    if (ext.first_row != expect_row || ext.row_count <= 0 ||
        ext.row_count > foot.total_rows - expect_row || ext.first_page < 0 ||
        ext.first_page >= foot.directory_first_page || ext.num_pages < 2 ||
        ext.num_pages > foot.directory_first_page - ext.first_page ||
        ext.row_count > (ext.num_pages - 1) * (kPS / 16)) {
      return Status::InvalidArgument("columnar EDB: corrupt extent directory");
    }
    expect_row += ext.row_count;
  }
  if (expect_row != foot.total_rows) {
    return Status::InvalidArgument(
        "columnar EDB: directory rows disagree with footer");
  }
  return out;
}

size_t ColumnarEdb::FirstExtentContaining(int64_t row) const {
  // First extent whose end is past `row`; dir_ is dense so a direct
  // division works whenever rows_per_extent_ is uniform, but binary search
  // keeps it correct for any directory.
  size_t lo = 0, hi = dir_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (dir_[mid].first_row + dir_[mid].row_count <= row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status ColumnarEdb::LoadExtent(BufferPool& pool, const ExtentDirEntry& ext,
                               int64_t row_begin, int64_t row_end,
                               const EdbProjection& proj,
                               DecodedColumns* out) const {
  ExtentFooter foot;
  {
    IOLAP_ASSIGN_OR_RETURN(
        PageGuard guard,
        pool.Pin(file_, ext.first_page + ext.num_pages - 1));
    std::memcpy(&foot, guard.data(), sizeof(foot));
  }
  if (foot.magic != kExtentMagic || foot.row_count != ext.row_count ||
      foot.num_cols != kEdbColLeaf0 + num_dims_) {
    return Status::InvalidArgument("columnar EDB: corrupt extent footer");
  }
  // Every column's pages must lie inside the extent, before its footer
  // page, and match its stream length — bounded before the arithmetic.
  const int64_t col_pages = ext.num_pages - 1;
  for (int c = 0; c < foot.num_cols; ++c) {
    const ColumnDesc& col = foot.cols[c];
    if (col.first_page < 0 || col.first_page > col_pages ||
        col.num_pages < 0 || col.num_pages > col_pages - col.first_page ||
        col.byte_length < 0 || col.byte_length > col.num_pages * kPS ||
        col.num_pages != PagesForBytes(col.byte_length)) {
      return Status::InvalidArgument("columnar EDB: corrupt column descriptor");
    }
  }
  const int64_t lr0 = row_begin - ext.first_row;
  const int64_t lr1 = row_end - ext.first_row;
  const size_t n = static_cast<size_t>(lr1 - lr0);
  std::vector<std::byte> head, body;

  auto fetch = [&](const ColumnDesc& col) -> Status {
    const ColumnWindows w = WindowsFor(col, lr0, lr1);
    IOLAP_RETURN_IF_ERROR(FetchStreamBytes(
        pool, file_, ext.first_page + col.first_page, col, w.head, &head));
    return FetchStreamBytes(pool, file_, ext.first_page + col.first_page, col,
                            w.body, &body);
  };

  if (proj.fact_id) {
    const ColumnDesc& col = foot.cols[kEdbColFactId];
    IOLAP_RETURN_IF_ERROR(fetch(col));
    out->fact_id.resize(n);
    IOLAP_RETURN_IF_ERROR(DecodeDeltaZigZag64(
        col, body.data(), static_cast<int64_t>(body.size()), lr0, lr1,
        out->fact_id.data()));
  }
  if (proj.measure) {
    const ColumnDesc& col = foot.cols[kEdbColMeasure];
    IOLAP_RETURN_IF_ERROR(fetch(col));
    out->measure.resize(n);
    IOLAP_RETURN_IF_ERROR(DecodePlain64(col, body.data(),
                                        static_cast<int64_t>(body.size()), lr0,
                                        lr1, out->measure.data()));
  }
  if (proj.weight) {
    const ColumnDesc& col = foot.cols[kEdbColWeight];
    IOLAP_RETURN_IF_ERROR(fetch(col));
    out->weight.resize(n);
    IOLAP_RETURN_IF_ERROR(DecodePlain64(col, body.data(),
                                        static_cast<int64_t>(body.size()), lr0,
                                        lr1, out->weight.data()));
  }
  for (int d = 0; d < num_dims_; ++d) {
    if (!proj.leaf[d]) continue;
    const ColumnDesc& col = foot.cols[kEdbColLeaf0 + d];
    IOLAP_RETURN_IF_ERROR(fetch(col));
    out->leaf[d].resize(n);
    IOLAP_RETURN_IF_ERROR(
        DecodeInt32(col, head.data(), static_cast<int64_t>(head.size()),
                    body.data(), static_cast<int64_t>(body.size()), lr0, lr1,
                    out->leaf[d].data()));
  }
  return Status::Ok();
}

Status ColumnarEdb::ReadRecords(BufferPool& pool, int64_t begin, int64_t end,
                                std::vector<EdbRecord>* out) const {
  out->clear();
  return ScanRows(pool, begin, end, EdbProjection::All(num_dims_),
                  [out](const Row& row) {
                    EdbRecord rec;
                    rec.fact_id = row.fact_id;
                    rec.measure = row.measure;
                    rec.weight = row.weight;
                    std::memcpy(rec.leaf, row.leaf, sizeof(rec.leaf));
                    out->push_back(rec);
                  });
}

Result<ColumnarEdb> WriteColumnarEdb(StorageEnv& env, const StarSchema& schema,
                                     const TypedFile<EdbRecord>& edb,
                                     const ColumnarWriteOptions& options) {
  if (options.rows_per_extent <= 0) {
    return Status::InvalidArgument("rows_per_extent must be positive");
  }
  const int num_dims = schema.num_dims();
  IOLAP_ASSIGN_OR_RETURN(FileId file, env.disk().CreateFile("edb_columnar"));
  BufferPool& pool = env.pool();

  std::vector<int64_t> fact_ids;
  std::vector<double> measures;
  std::vector<double> weights;
  std::vector<int32_t> leaves[kMaxDims];
  fact_ids.reserve(static_cast<size_t>(options.rows_per_extent));
  std::vector<std::byte> stream;
  std::vector<ExtentDirEntry> dir;
  PageId next_page = 0;
  int64_t first_row = 0;
  bool extent_tombstones = false;
  uint32_t file_flags = 0;

  auto flush_extent = [&]() -> Status {
    const int64_t rows = static_cast<int64_t>(fact_ids.size());
    if (rows == 0) return Status::Ok();
    ExtentFooter footer;
    footer.row_count = rows;
    footer.num_cols = kEdbColLeaf0 + num_dims;
    if (extent_tombstones) footer.flags |= kExtentFlagTombstones;
    const PageId ext_first = next_page;

    auto emit = [&](int col, ColumnDesc desc) -> Status {
      desc.first_page = next_page - ext_first;
      desc.num_pages = PagesForBytes(desc.byte_length);
      footer.cols[col] = desc;
      IOLAP_RETURN_IF_ERROR(WriteStreamPages(pool, file, stream, &next_page));
      stream.clear();
      return Status::Ok();
    };

    IOLAP_RETURN_IF_ERROR(emit(
        kEdbColFactId, EncodeDeltaZigZag64(fact_ids.data(), rows, &stream)));
    IOLAP_RETURN_IF_ERROR(
        emit(kEdbColMeasure, EncodePlain64(measures.data(), rows, &stream)));
    IOLAP_RETURN_IF_ERROR(
        emit(kEdbColWeight, EncodePlain64(weights.data(), rows, &stream)));
    for (int d = 0; d < num_dims; ++d) {
      IOLAP_RETURN_IF_ERROR(emit(
          kEdbColLeaf0 + d, EncodeInt32Auto(leaves[d].data(), rows, &stream)));
    }
    IOLAP_RETURN_IF_ERROR(WritePodPage(pool, file, footer, &next_page));
    dir.push_back(ExtentDirEntry{ext_first, next_page - ext_first, first_row,
                                 rows});
    first_row += rows;
    fact_ids.clear();
    measures.clear();
    weights.clear();
    for (int d = 0; d < num_dims; ++d) leaves[d].clear();
    extent_tombstones = false;
    return Status::Ok();
  };

  auto cursor = edb.Scan(pool);
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.weight == 0) {
      if (rec.fact_id != -1) {
        return Status::InvalidArgument(
            "EDB row " + std::to_string(fact_ids.size() + first_row) +
            " has weight 0 but fact_id " + std::to_string(rec.fact_id) +
            " (Definition 4: live rows need weight > 0)");
      }
      extent_tombstones = true;
      file_flags |= kExtentFlagTombstones;
    }
    fact_ids.push_back(rec.fact_id);
    measures.push_back(rec.measure);
    weights.push_back(rec.weight);
    for (int d = 0; d < num_dims; ++d) leaves[d].push_back(rec.leaf[d]);
    if (static_cast<int64_t>(fact_ids.size()) == options.rows_per_extent) {
      IOLAP_RETURN_IF_ERROR(flush_extent());
    }
  }
  IOLAP_RETURN_IF_ERROR(flush_extent());

  ColumnarFileFooter foot;
  foot.num_dims = num_dims;
  foot.num_extents = static_cast<int64_t>(dir.size());
  foot.total_rows = first_row;
  foot.directory_first_page = next_page;
  foot.directory_pages = PagesForBytes(
      foot.num_extents * static_cast<int64_t>(sizeof(ExtentDirEntry)));
  foot.rows_per_extent = options.rows_per_extent;
  foot.flags = file_flags;
  stream.clear();
  const auto* dir_bytes = reinterpret_cast<const std::byte*>(dir.data());
  stream.assign(dir_bytes,
                dir_bytes + dir.size() * sizeof(ExtentDirEntry));
  IOLAP_RETURN_IF_ERROR(WriteStreamPages(pool, file, stream, &next_page));
  IOLAP_RETURN_IF_ERROR(WritePodPage(pool, file, foot, &next_page));
  IOLAP_RETURN_IF_ERROR(pool.FlushFile(file));
  return ColumnarEdb::Open(env, file);
}

}  // namespace iolap
