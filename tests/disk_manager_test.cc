#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/result.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

class DiskManagerTest : public ::testing::Test {
 protected:
  DiskManagerTest() : disk_(MakeTempDir()) {}
  DiskManager disk_;
};

TEST_F(DiskManagerTest, CreateAndRoundtrip) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte out[kPageSize];
  std::byte in[kPageSize];
  std::memset(out, 0xAB, kPageSize);
  IOLAP_ASSERT_OK(disk_.WritePage(f, 0, out));
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, in));
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
}

TEST_F(DiskManagerTest, GrowsDensely) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte page[kPageSize] = {};
  IOLAP_ASSERT_OK(disk_.WritePage(f, 0, page));
  IOLAP_ASSERT_OK(disk_.WritePage(f, 1, page));
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t size, disk_.SizeInPages(f));
  EXPECT_EQ(size, 2);
  // Writing page 3 (skipping 2) would leave a hole.
  EXPECT_EQ(disk_.WritePage(f, 3, page).code(), StatusCode::kOutOfRange);
}

TEST_F(DiskManagerTest, ReadBeyondEofFails) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte page[kPageSize];
  EXPECT_EQ(disk_.ReadPage(f, 0, page).code(), StatusCode::kOutOfRange);
}

TEST_F(DiskManagerTest, OverwriteExistingPage) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte a[kPageSize], b[kPageSize], got[kPageSize];
  std::memset(a, 1, kPageSize);
  std::memset(b, 2, kPageSize);
  IOLAP_ASSERT_OK(disk_.WritePage(f, 0, a));
  IOLAP_ASSERT_OK(disk_.WritePage(f, 0, b));
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, got));
  EXPECT_EQ(std::memcmp(b, got, kPageSize), 0);
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t size, disk_.SizeInPages(f));
  EXPECT_EQ(size, 1);
}

TEST_F(DiskManagerTest, StatsCountPages) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte page[kPageSize] = {};
  for (int i = 0; i < 5; ++i) IOLAP_ASSERT_OK(disk_.WritePage(f, i, page));
  for (int i = 0; i < 3; ++i) IOLAP_ASSERT_OK(disk_.ReadPage(f, i, page));
  EXPECT_EQ(disk_.stats().page_writes, 5);
  EXPECT_EQ(disk_.stats().page_reads, 3);
  EXPECT_EQ(disk_.stats().total(), 8);
  disk_.ResetStats();
  EXPECT_EQ(disk_.stats().total(), 0);
}

TEST_F(DiskManagerTest, TruncateShrinks) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte page[kPageSize] = {};
  for (int i = 0; i < 4; ++i) IOLAP_ASSERT_OK(disk_.WritePage(f, i, page));
  IOLAP_ASSERT_OK(disk_.Truncate(f, 2));
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t size, disk_.SizeInPages(f));
  EXPECT_EQ(size, 2);
  EXPECT_EQ(disk_.ReadPage(f, 2, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk_.Truncate(f, 5).code(), StatusCode::kOutOfRange);
}

TEST_F(DiskManagerTest, DeleteFileInvalidatesId) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  IOLAP_ASSERT_OK(disk_.DeleteFile(f));
  std::byte page[kPageSize];
  EXPECT_EQ(disk_.ReadPage(f, 0, page).code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_.DeleteFile(f).code(), StatusCode::kNotFound);
}

TEST_F(DiskManagerTest, ManyFilesAreIndependent) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId a, disk_.CreateFile("a"));
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId b, disk_.CreateFile("b"));
  std::byte pa[kPageSize], pb[kPageSize], got[kPageSize];
  std::memset(pa, 7, kPageSize);
  std::memset(pb, 9, kPageSize);
  IOLAP_ASSERT_OK(disk_.WritePage(a, 0, pa));
  IOLAP_ASSERT_OK(disk_.WritePage(b, 0, pb));
  IOLAP_ASSERT_OK(disk_.ReadPage(a, 0, got));
  EXPECT_EQ(got[0], std::byte{7});
  IOLAP_ASSERT_OK(disk_.ReadPage(b, 0, got));
  EXPECT_EQ(got[0], std::byte{9});
}

// ---------------------------------------------------------------------------
// Fault injection: an injected failure is the operation's result, code and
// all, after exactly one attempt.

TEST_F(DiskManagerTest, InjectedFailureSurfacesWithItsCode) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  std::byte page[kPageSize] = {};
  IOLAP_ASSERT_OK(disk_.WritePage(f, 0, page));
  for (const Status& injected :
       {Status::IoError("permanent"), Status::Unavailable("transient")}) {
    int attempts = 0;
    disk_.SetFaultInjector([&](char, FileId, PageId) {
      ++attempts;
      return injected;
    });
    EXPECT_EQ(disk_.ReadPage(f, 0, page).code(), injected.code());
    EXPECT_EQ(disk_.WritePage(f, 0, page).code(), injected.code());
    EXPECT_EQ(attempts, 2);
  }
  disk_.SetFaultInjector(nullptr);
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
}

// ---------------------------------------------------------------------------
// ExportPages / ImportPages: the raw image copies behind checkpoints.

TEST_F(DiskManagerTest, ExportImportRoundtrip) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId src, disk_.CreateFile("src"));
  std::byte page[kPageSize];
  for (int p = 0; p < 5; ++p) {
    std::memset(page, p + 1, kPageSize);
    IOLAP_ASSERT_OK(disk_.WritePage(src, p, page));
  }
  IoStats before = disk_.stats();
  std::string image = MakeTempDir() + "/image";
  IOLAP_ASSERT_OK(disk_.ExportPages(src, 5, image));

  IOLAP_ASSERT_OK_AND_ASSIGN(FileId dst, disk_.CreateFile("dst"));
  IOLAP_ASSERT_OK(disk_.ImportPages(dst, image, 5));
  // Checkpoint copies are not demand I/O: the counters must not move.
  EXPECT_EQ(disk_.stats().total(), before.total());
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t size, disk_.SizeInPages(dst));
  EXPECT_EQ(size, 5);
  std::byte got[kPageSize];
  for (int p = 0; p < 5; ++p) {
    IOLAP_ASSERT_OK(disk_.ReadPage(dst, p, got));
    EXPECT_EQ(got[0], std::byte(p + 1)) << "page " << p;
  }
}

TEST_F(DiskManagerTest, ImportIntoNonEmptyFileRefused) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId src, disk_.CreateFile("src"));
  std::byte page[kPageSize] = {};
  IOLAP_ASSERT_OK(disk_.WritePage(src, 0, page));
  std::string image = MakeTempDir() + "/image";
  IOLAP_ASSERT_OK(disk_.ExportPages(src, 1, image));
  EXPECT_EQ(disk_.ImportPages(src, image, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DiskManagerTest, CheckpointOpsHitTheFaultInjector) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId src, disk_.CreateFile("src"));
  std::byte page[kPageSize] = {};
  IOLAP_ASSERT_OK(disk_.WritePage(src, 0, page));
  disk_.SetFaultInjector([](char op, FileId, PageId) {
    return op == 'c' ? Status::IoError("injected checkpoint fault")
                     : Status::Ok();
  });
  EXPECT_EQ(disk_.ExportPages(src, 1, MakeTempDir() + "/image").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace iolap
