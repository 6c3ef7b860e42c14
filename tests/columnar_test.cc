#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "datagen/table2.h"
#include "edb/columnar.h"
#include "model/records.h"
#include "storage/extent.h"
#include "storage/storage_env.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

// ---------------------------------------------------------------------------
// Encoding layer (storage/extent.h): property round trips over seeded Rng
// data, decoded both whole and through partial-row windows.

std::vector<std::byte> SliceStream(const std::vector<std::byte>& stream,
                                   const ByteRange& r) {
  return std::vector<std::byte>(stream.begin() + r.begin,
                                stream.begin() + r.end);
}

// Decodes rows [r0, r1) of an int32 column from exactly the byte windows
// WindowsFor names — any under-reported window would fail here before it
// ever hides inside whole-page reads.
std::vector<int32_t> DecodeInt32Range(const ColumnDesc& desc,
                                      const std::vector<std::byte>& stream,
                                      int64_t r0, int64_t r1) {
  const ColumnWindows w = WindowsFor(desc, r0, r1);
  const std::vector<std::byte> head = SliceStream(stream, w.head);
  const std::vector<std::byte> body = SliceStream(stream, w.body);
  std::vector<int32_t> out(static_cast<size_t>(r1 - r0));
  const Status st = DecodeInt32(desc, head.data(),
                                static_cast<int64_t>(head.size()), body.data(),
                                static_cast<int64_t>(body.size()), r0, r1,
                                out.data());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(ExtentEncodingTest, Int32AutoRoundTripAcrossShapes) {
  Rng rng(2024);
  // Shapes that force every dictionary width (0, 1, 2, 4 bytes) plus the
  // plain fallback on high-cardinality data.
  const int64_t cardinalities[] = {1, 2, 200, 300, 70000, 1 << 20};
  for (int64_t card : cardinalities) {
    for (int64_t n : {1, 7, 1000}) {
      std::vector<int32_t> vals(static_cast<size_t>(n));
      for (auto& v : vals) {
        v = static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(card))) -
            50;  // include negatives
      }
      std::vector<std::byte> stream;
      const ColumnDesc desc = EncodeInt32Auto(vals.data(), n, &stream);
      ASSERT_EQ(desc.byte_length, static_cast<int64_t>(stream.size()));
      EXPECT_EQ(DecodeInt32Range(desc, stream, 0, n), vals);
      // Partial windows, including single rows and suffixes.
      const int64_t r0 = static_cast<int64_t>(rng.Uniform(n));
      const int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.Uniform(n - r0));
      const std::vector<int32_t> part = DecodeInt32Range(desc, stream, r0, r1);
      for (int64_t i = r0; i < r1; ++i) {
        ASSERT_EQ(part[i - r0], vals[i]) << "row " << i;
      }
    }
  }
}

TEST(ExtentEncodingTest, DictIsChosenExactlyWhenSmaller) {
  // 1000 rows over 4 distinct values: dict = 4 + 16 + 1000 bytes, far under
  // plain's 4000.
  std::vector<int32_t> few(1000);
  for (size_t i = 0; i < few.size(); ++i) few[i] = static_cast<int32_t>(i % 4);
  std::vector<std::byte> stream;
  ColumnDesc desc = EncodeInt32Auto(few.data(), 1000, &stream);
  EXPECT_EQ(desc.encoding, static_cast<uint16_t>(ColumnEncoding::kDict32));
  EXPECT_EQ(desc.dict_size, 4u);
  EXPECT_EQ(desc.byte_length, 4 + 16 + 1000);

  // All-distinct rows: dictionary would cost 4 + 4n + n, strictly worse.
  std::vector<int32_t> distinct(1000);
  for (size_t i = 0; i < distinct.size(); ++i) {
    distinct[i] = static_cast<int32_t>(i);
  }
  stream.clear();
  desc = EncodeInt32Auto(distinct.data(), 1000, &stream);
  EXPECT_EQ(desc.encoding, static_cast<uint16_t>(ColumnEncoding::kPlain32));
  EXPECT_EQ(desc.byte_length, 4000);
}

TEST(ExtentEncodingTest, DeltaZigZagRoundTripIncludingExtremes) {
  Rng rng(7);
  std::vector<int64_t> vals = {0,
                               std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min(),
                               -1,
                               1,
                               std::numeric_limits<int64_t>::min()};
  for (int i = 0; i < 500; ++i) {
    vals.push_back(static_cast<int64_t>(rng.Next()));
  }
  std::vector<std::byte> stream;
  const ColumnDesc desc =
      EncodeDeltaZigZag64(vals.data(), static_cast<int64_t>(vals.size()),
                          &stream);
  ASSERT_EQ(desc.byte_length, static_cast<int64_t>(stream.size()));
  for (const auto& [r0, r1] : {std::pair<int64_t, int64_t>{0, 506},
                              {0, 1},
                              {505, 506},
                              {3, 17}}) {
    const ColumnWindows w = WindowsFor(desc, r0, r1);
    ASSERT_LE(w.body.end, desc.byte_length);
    const std::vector<std::byte> body = SliceStream(stream, w.body);
    std::vector<int64_t> out(static_cast<size_t>(r1 - r0));
    IOLAP_ASSERT_OK(DecodeDeltaZigZag64(desc, body.data(),
                                        static_cast<int64_t>(body.size()), r0,
                                        r1, out.data()));
    for (int64_t i = r0; i < r1; ++i) {
      ASSERT_EQ(out[i - r0], vals[i]) << "row " << i;
    }
  }
}

TEST(ExtentEncodingTest, Plain64RoundTripsDoubleBits) {
  std::vector<double> vals = {0.0, -0.0, 1.5, -2.25, 1e300, 5e-324};
  std::vector<std::byte> stream;
  const ColumnDesc desc =
      EncodePlain64(vals.data(), static_cast<int64_t>(vals.size()), &stream);
  const ColumnWindows w = WindowsFor(desc, 2, 5);
  const std::vector<std::byte> body = SliceStream(stream, w.body);
  double out[3];
  IOLAP_ASSERT_OK(DecodePlain64(desc, body.data(),
                                static_cast<int64_t>(body.size()), 2, 5, out));
  EXPECT_EQ(std::memcmp(out, vals.data() + 2, sizeof(out)), 0);
}

TEST(ExtentEncodingTest, MalformedStreamsAreRejected) {
  std::vector<int32_t> vals(100);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<int32_t>(i % 5);  // width-1 codes
  }
  std::vector<std::byte> stream;
  ColumnDesc desc = EncodeInt32Auto(vals.data(), 100, &stream);
  ASSERT_EQ(desc.encoding, static_cast<uint16_t>(ColumnEncoding::kDict32));
  int32_t out[100];
  const int64_t code_off = 4 + 4 * desc.dict_size;
  // Short code window.
  EXPECT_FALSE(DecodeInt32(desc, stream.data(), code_off,
                           stream.data() + code_off, 10, 0, 100, out)
                   .ok());
  // Code past the dictionary.
  std::vector<std::byte> evil = stream;
  evil[static_cast<size_t>(code_off)] = std::byte{200};
  EXPECT_FALSE(DecodeInt32(desc, evil.data(), code_off, evil.data() + code_off,
                           100, 0, 100, out)
                   .ok());
  // Truncated varint stream.
  std::vector<int64_t> ids = {5, 1000000, 6};
  stream.clear();
  desc = EncodeDeltaZigZag64(ids.data(), 3, &stream);
  int64_t out64[3];
  EXPECT_FALSE(
      DecodeDeltaZigZag64(desc, stream.data(), 9, 0, 3, out64).ok());
}

// The EstimateDataPages-class bug this PR audits: a stream whose encoded
// size is an exact page multiple must not round up to an extra page.
TEST(ExtentEncodingTest, PagesForBytesExactMultiples) {
  EXPECT_EQ(PagesForBytes(0), 0);
  EXPECT_EQ(PagesForBytes(1), 1);
  EXPECT_EQ(PagesForBytes(static_cast<int64_t>(kPageSize)), 1);
  EXPECT_EQ(PagesForBytes(static_cast<int64_t>(kPageSize) + 1), 2);
  EXPECT_EQ(PagesForBytes(7 * static_cast<int64_t>(kPageSize)), 7);
}

// ---------------------------------------------------------------------------
// Columnar EDB (edb/columnar.h): conversion round trips, tombstones,
// page-exact column boundaries, projection I/O.

class ColumnarEdbTest : public ::testing::Test {
 protected:
  ColumnarEdbTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
  }

  /// Builds a row EDB of `rows` seeded-random records; every ~7th row is a
  /// tombstone when `with_tombstones`.
  TypedFile<EdbRecord> MakeEdb(int64_t rows, uint64_t seed,
                               bool with_tombstones) {
    auto created = TypedFile<EdbRecord>::Create(env_.disk(), "edb_rows");
    EXPECT_TRUE(created.ok());
    TypedFile<EdbRecord> edb = std::move(created).value();
    auto appender = edb.MakeAppender(env_.pool());
    Rng rng(seed);
    for (int64_t i = 0; i < rows; ++i) {
      EdbRecord rec{};
      if (with_tombstones && rng.Bernoulli(1.0 / 7)) {
        rec.fact_id = -1;
        rec.weight = 0;
      } else {
        rec.fact_id = static_cast<FactId>(rng.Uniform(1u << 20));
        rec.weight = rng.NextDouble() + 1e-6;
        rec.measure = rng.NextDouble() * 100;
      }
      for (int d = 0; d < schema_.num_dims(); ++d) {
        rec.leaf[d] = static_cast<int32_t>(
            rng.Uniform(static_cast<uint64_t>(schema_.dim(d).num_leaves())));
      }
      IOLAP_EXPECT_OK(appender.Append(rec));
    }
    appender.Close();
    return edb;
  }

  /// memcmp-compares every row of `edb` against the columnar mirror.
  void ExpectRoundTrip(const TypedFile<EdbRecord>& edb,
                       const ColumnarEdb& col) {
    ASSERT_EQ(col.num_rows(), edb.size());
    std::vector<EdbRecord> got;
    IOLAP_ASSERT_OK(col.ReadRecords(env_.pool(), 0, col.num_rows(), &got));
    std::vector<EdbRecord> want;
    auto cursor = edb.Scan(env_.pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      want.push_back(rec);
    }
    ASSERT_EQ(got.size(), want.size());
    if (!want.empty()) {
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(EdbRecord)),
                0);
    }
  }

  StorageEnv env_;
  StarSchema schema_;
};

TEST_F(ColumnarEdbTest, RoundTripWithTombstonesAcrossExtents) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    TypedFile<EdbRecord> edb = MakeEdb(1000, seed, /*with_tombstones=*/true);
    ColumnarWriteOptions opts;
    opts.rows_per_extent = 256;  // forces 4 extents, last one short
    IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                               WriteColumnarEdb(env_, schema_, edb, opts));
    EXPECT_EQ(col.num_extents(), 4);
    EXPECT_TRUE(col.has_tombstones());
    ExpectRoundTrip(edb, col);
  }
}

TEST_F(ColumnarEdbTest, SingleRowAndEmptyEdb) {
  TypedFile<EdbRecord> one = MakeEdb(1, 9, /*with_tombstones=*/false);
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col_one,
                             WriteColumnarEdb(env_, schema_, one, {}));
  EXPECT_EQ(col_one.num_extents(), 1);
  ExpectRoundTrip(one, col_one);

  TypedFile<EdbRecord> empty = MakeEdb(0, 9, /*with_tombstones=*/false);
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col_empty,
                             WriteColumnarEdb(env_, schema_, empty, {}));
  EXPECT_EQ(col_empty.num_extents(), 0);
  EXPECT_EQ(col_empty.num_rows(), 0);
  EXPECT_FALSE(col_empty.has_tombstones());
  ExpectRoundTrip(empty, col_empty);
}

TEST_F(ColumnarEdbTest, AllTombstoneExtent) {
  auto created = TypedFile<EdbRecord>::Create(env_.disk(), "edb_tombs");
  ASSERT_TRUE(created.ok());
  TypedFile<EdbRecord> edb = std::move(created).value();
  auto appender = edb.MakeAppender(env_.pool());
  EdbRecord tomb{};
  tomb.fact_id = -1;
  tomb.weight = 0;
  for (int i = 0; i < 10; ++i) IOLAP_ASSERT_OK(appender.Append(tomb));
  appender.Close();
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                             WriteColumnarEdb(env_, schema_, edb, {}));
  EXPECT_TRUE(col.has_tombstones());
  ExpectRoundTrip(edb, col);
  // A weight-projected scan skips all of them via IsTombstone.
  int64_t live = 0;
  EdbProjection proj;
  proj.weight = true;
  IOLAP_ASSERT_OK(col.ScanRows(env_.pool(), 0, -1, proj,
                               [&](const ColumnarEdb::Row& row) {
                                 if (!ColumnarEdb::IsTombstone(row.weight)) {
                                   ++live;
                                 }
                               }));
  EXPECT_EQ(live, 0);
}

TEST_F(ColumnarEdbTest, RejectsWeightZeroNonTombstone) {
  auto created = TypedFile<EdbRecord>::Create(env_.disk(), "edb_bad");
  ASSERT_TRUE(created.ok());
  TypedFile<EdbRecord> edb = std::move(created).value();
  EdbRecord bad{};
  bad.fact_id = 42;  // weight 0 but not the tombstone sentinel
  bad.weight = 0;
  IOLAP_ASSERT_OK(edb.Append(env_.pool(), bad));
  auto result = WriteColumnarEdb(env_, schema_, edb, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// 512 plain-64 rows are exactly one 4096-byte page: the extent must lay the
// next column out without a stray page, and partial decodes at the boundary
// must still work. Regression for the exact-page-multiple size math.
TEST_F(ColumnarEdbTest, ExactPageMultipleColumnBoundary) {
  TypedFile<EdbRecord> edb = MakeEdb(512, 11, /*with_tombstones=*/true);
  ColumnarWriteOptions opts;
  opts.rows_per_extent = 512;
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                             WriteColumnarEdb(env_, schema_, edb, opts));
  ASSERT_EQ(col.num_extents(), 1);
  ExpectRoundTrip(edb, col);
  // measure and weight streams are 512 * 8 = 4096 bytes = exactly 1 page.
  EXPECT_EQ(PagesForBytes(512 * 8), 1);
  std::vector<EdbRecord> rows;
  IOLAP_ASSERT_OK(col.ReadRecords(env_.pool(), 511, 512, &rows));
  ASSERT_EQ(rows.size(), 1u);
}

TEST_F(ColumnarEdbTest, ProjectionReadsFewerPagesThanFullScan) {
  TypedFile<EdbRecord> edb = MakeEdb(20000, 5, /*with_tombstones=*/true);
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                             WriteColumnarEdb(env_, schema_, edb, {}));
  EXPECT_LT(col.size_in_pages(), edb.size_in_pages());

  auto cold_scan = [&](const EdbProjection& proj) -> int64_t {
    IOLAP_EXPECT_OK(env_.pool().EvictFile(col.file_id()));
    const int64_t before = env_.disk().stats().page_reads;
    double sink = 0;
    IOLAP_EXPECT_OK(col.ScanRows(env_.pool(), 0, -1, proj,
                                 [&](const ColumnarEdb::Row& row) {
                                   sink += row.weight + row.measure;
                                 }));
    EXPECT_NE(sink, 0);
    return env_.disk().stats().page_reads - before;
  };

  EdbProjection narrow;
  narrow.weight = true;
  narrow.measure = true;
  const int64_t narrow_reads = cold_scan(narrow);
  const int64_t full_reads = cold_scan(EdbProjection::All(schema_.num_dims()));
  EXPECT_LT(narrow_reads, full_reads);
  // The tentpole target: a (weight, measure) aggregate scan well under
  // 0.6x the row-major page count.
  EXPECT_LT(narrow_reads * 10, edb.size_in_pages() * 6);
}

// ---------------------------------------------------------------------------
// Crafted corruption: every on-disk integer Open / LoadExtent trusts is
// bounded before any arithmetic, so hostile footers, directory entries and
// column descriptors fail with InvalidArgument — never an overflow (UBSan
// aborts on one), a huge allocation or a page read outside the file.

class ColumnarCorruptionTest : public ColumnarEdbTest {
 protected:
  void SetUp() override {
    ColumnarEdbTest::SetUp();
    edb_ = MakeEdb(600, 4, /*with_tombstones=*/true);
    ColumnarWriteOptions opts;
    opts.rows_per_extent = 256;  // 3 extents
    IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                               WriteColumnarEdb(env_, schema_, edb_, opts));
    file_ = col.file_id();
    IOLAP_ASSERT_OK_AND_ASSIGN(pages_, env_.disk().SizeInPages(file_));
    IOLAP_ASSERT_OK(ReadPod(pages_ - 1, &foot_));
    ASSERT_EQ(foot_.num_extents, 3);
  }

  template <typename T>
  Status ReadPod(PageId page, T* pod, size_t offset = 0) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_.pool().Pin(file_, page));
    std::memcpy(pod, guard.data() + offset, sizeof(T));
    return Status::Ok();
  }

  template <typename T>
  Status WritePod(PageId page, const T& pod, size_t offset = 0) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_.pool().Pin(file_, page));
    std::memcpy(guard.data() + offset, &pod, sizeof(T));
    guard.MarkDirty();
    return Status::Ok();
  }

  /// Rewrites the file footer through `edit`, then expects Open to refuse.
  template <typename Edit>
  void ExpectFooterRejected(Edit edit) {
    ColumnarFileFooter foot = foot_;
    edit(&foot);
    IOLAP_ASSERT_OK(WritePod(pages_ - 1, foot));
    auto opened = ColumnarEdb::Open(env_, file_);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    IOLAP_ASSERT_OK(WritePod(pages_ - 1, foot_));
  }

  /// Rewrites the three-entry extent directory through `edit`, then
  /// expects Open to refuse.
  template <typename Edit>
  void ExpectDirectoryRejected(Edit edit) {
    using Dir = std::array<ExtentDirEntry, 3>;
    Dir saved;
    IOLAP_ASSERT_OK(ReadPod(foot_.directory_first_page, &saved));
    Dir dir = saved;
    edit(&dir);
    IOLAP_ASSERT_OK(WritePod(foot_.directory_first_page, dir));
    auto opened = ColumnarEdb::Open(env_, file_);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    IOLAP_ASSERT_OK(WritePod(foot_.directory_first_page, saved));
  }

  /// Rewrites column `c` of extent 0's footer through `edit`; Open still
  /// succeeds (it reads no extent footer) but a scan projecting every
  /// column must refuse.
  template <typename Edit>
  void ExpectColumnRejected(int c, Edit edit) {
    ExtentDirEntry ext;
    IOLAP_ASSERT_OK(ReadPod(foot_.directory_first_page, &ext));
    const PageId footer_page = ext.first_page + ext.num_pages - 1;
    ExtentFooter saved;
    IOLAP_ASSERT_OK(ReadPod(footer_page, &saved));
    ExtentFooter footer = saved;
    edit(&footer.cols[c]);
    IOLAP_ASSERT_OK(WritePod(footer_page, footer));
    IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col, ColumnarEdb::Open(env_, file_));
    std::vector<EdbRecord> rows;
    const Status st = col.ReadRecords(env_.pool(), 0, 10, &rows);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    IOLAP_ASSERT_OK(WritePod(footer_page, saved));
  }

  TypedFile<EdbRecord> edb_;
  FileId file_ = kInvalidFileId;
  int64_t pages_ = 0;
  ColumnarFileFooter foot_;
};

constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

TEST_F(ColumnarCorruptionTest, UntouchedFileStillOpens) {
  IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col, ColumnarEdb::Open(env_, file_));
  ExpectRoundTrip(edb_, col);
}

TEST_F(ColumnarCorruptionTest, HugeExtentCountRejected) {
  // num_extents * 32 wraps to 0 bytes = 0 directory pages at 2^59; 2^58
  // overflows signed int64_t in the product.
  for (const int64_t n : {int64_t{1} << 58, int64_t{1} << 59, kI64Max}) {
    ExpectFooterRejected([n](ColumnarFileFooter* f) {
      f->num_extents = n;
      f->directory_pages = 0;
    });
  }
  ExpectFooterRejected([this](ColumnarFileFooter* f) {
    f->num_extents = pages_ + 1;  // more extents than pages
    f->directory_pages = PagesForBytes(f->num_extents * 32);
  });
}

TEST_F(ColumnarCorruptionTest, DirectoryPageSumOverflowRejected) {
  ExpectFooterRejected([](ColumnarFileFooter* f) {
    f->directory_first_page = kI64Max - 1;
  });
  ExpectFooterRejected([](ColumnarFileFooter* f) {
    f->directory_pages = kI64Max;
  });
  ExpectFooterRejected([](ColumnarFileFooter* f) {
    f->directory_pages = -1;
  });
}

TEST_F(ColumnarCorruptionTest, ExtentPageSumOverflowRejected) {
  using Dir = std::array<ExtentDirEntry, 3>;
  ExpectDirectoryRejected([](Dir* d) { (*d)[1].first_page = kI64Max - 1; });
  ExpectDirectoryRejected([](Dir* d) { (*d)[1].num_pages = kI64Max; });
}

TEST_F(ColumnarCorruptionTest, ExtentRowSumOverflowRejected) {
  using Dir = std::array<ExtentDirEntry, 3>;
  // Extent 0 claims every row the int64_t range holds and extent 1 starts
  // there: the running row sum would overflow on extent 1.
  ExpectDirectoryRejected([](Dir* d) {
    (*d)[0].row_count = kI64Max;
    (*d)[1].first_row = kI64Max;
  });
  // A row count no extent's pages could hold (8-byte measure and weight
  // columns), even when the footer agrees with it.
  ColumnarFileFooter foot = foot_;
  foot.total_rows = kI64Max / 2;
  IOLAP_ASSERT_OK(WritePod(pages_ - 1, foot));
  ExpectDirectoryRejected([](Dir* d) {
    (*d)[2].row_count = kI64Max / 2 - (*d)[2].first_row;
  });
  IOLAP_ASSERT_OK(WritePod(pages_ - 1, foot_));
}

TEST_F(ColumnarCorruptionTest, ColumnOutsideExtentRejected) {
  // Past the extent's footer page, or overflowing the page sum.
  ExpectColumnRejected(kEdbColMeasure, [](ColumnDesc* c) {
    c->first_page = 1000;
  });
  ExpectColumnRejected(kEdbColWeight, [](ColumnDesc* c) {
    c->first_page = kI64Max - 1;
  });
  ExpectColumnRejected(kEdbColLeaf0, [](ColumnDesc* c) {
    c->num_pages = kI64Max;
  });
  ExpectColumnRejected(kEdbColFactId, [](ColumnDesc* c) {
    c->first_page = -1;
  });
}

TEST_F(ColumnarCorruptionTest, ColumnPagesDisagreeWithLengthRejected) {
  ExpectColumnRejected(kEdbColMeasure, [](ColumnDesc* c) { ++c->num_pages; });
  ExpectColumnRejected(kEdbColMeasure, [](ColumnDesc* c) {
    c->byte_length += static_cast<int64_t>(kPageSize);
  });
  ExpectColumnRejected(kEdbColWeight, [](ColumnDesc* c) {
    c->byte_length = kI64Max;  // PagesForBytes would overflow
  });
  ExpectColumnRejected(kEdbColLeaf0 + 1, [](ColumnDesc* c) {
    c->byte_length = -1;
  });
}

}  // namespace
}  // namespace iolap
