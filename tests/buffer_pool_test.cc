#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/result.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(MakeTempDir()) {}

  FileId NewFileWithPages(int n) {
    auto file = disk_.CreateFile("t");
    EXPECT_TRUE(file.ok());
    std::byte page[kPageSize];
    for (int i = 0; i < n; ++i) {
      std::memset(page, i, kPageSize);
      EXPECT_TRUE(disk_.WritePage(*file, i, page).ok());
    }
    return *file;
  }

  DiskManager disk_;
};

TEST_F(BufferPoolTest, HitAvoidsDiskRead) {
  FileId f = NewFileWithPages(2);
  BufferPool pool(&disk_, 4);
  disk_.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    EXPECT_EQ(g.data()[0], std::byte{0});
  }
  EXPECT_EQ(disk_.stats().page_reads, 1);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(disk_.stats().page_reads, 1);  // second pin was a hit
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST_F(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[0] = std::byte{0xEE};
    g.MarkDirty();
  }
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    (void)g;
  }
  // Pool is full; pinning page 2 must evict page 0 (LRU) and write it back.
  disk_.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2));
    (void)g;
  }
  EXPECT_EQ(disk_.stats().page_writes, 1);
  EXPECT_EQ(pool.stats().dirty_writebacks, 1);
  // Re-reading page 0 from disk shows the written-back byte.
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g0, pool.Pin(f, 0));
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g1, pool.Pin(f, 1));
  Result<PageGuard> g2 = pool.Pin(f, 2);
  EXPECT_FALSE(g2.ok());
  EXPECT_EQ(g2.status().code(), StatusCode::kResourceExhausted);
  g0.Release();
  Result<PageGuard> retry = pool.Pin(f, 2);
  EXPECT_TRUE(retry.ok());
}

TEST_F(BufferPoolTest, PinCountsAreSharedPerPage) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard a, pool.Pin(f, 0));
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard b, pool.Pin(f, 0));
  EXPECT_EQ(pool.pinned_pages(), 1u);
  a.Release();
  EXPECT_EQ(pool.pinned_pages(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, PinNewCreatesZeroedTailPage) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.PinNew(f, 0));
    for (size_t i = 0; i < kPageSize; i += 512) {
      EXPECT_EQ(g.data()[i], std::byte{0});
    }
    g.data()[5] = std::byte{0x42};
    g.MarkDirty();
  }
  IOLAP_ASSERT_OK(pool.FlushAll());
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[5], std::byte{0x42});
  // PinNew must target exactly the end of the file.
  EXPECT_FALSE(pool.PinNew(f, 5).ok());
}

TEST_F(BufferPoolTest, EvictFileDropsCleanAndDirtyPages) {
  FileId f = NewFileWithPages(2);
  BufferPool pool(&disk_, 4);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[0] = std::byte{0x33};
    g.MarkDirty();
  }
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    (void)g;
  }
  IOLAP_ASSERT_OK(pool.EvictFile(f));
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[0], std::byte{0x33});
  // All frames free again: next pins are misses.
  pool.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST_F(BufferPoolTest, EvictFileRefusesPinnedPages) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
  EXPECT_EQ(pool.EvictFile(f).code(), StatusCode::kFailedPrecondition);
  g.Release();
  IOLAP_EXPECT_OK(pool.EvictFile(f));
}

TEST_F(BufferPoolTest, FlushFileKeepsPagesCached) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[1] = std::byte{0x77};
    g.MarkDirty();
  }
  IOLAP_ASSERT_OK(pool.FlushFile(f));
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[1], std::byte{0x77});
  pool.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(pool.stats().hits, 1);  // still cached
}

TEST_F(BufferPoolTest, MoveSemanticsOfGuard) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard a, pool.Pin(f, 0));
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.pinned_pages(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

// The pool has no read-ahead (DESIGN.md §13). The cases below pin the
// invariants the deleted read-ahead had to preserve, which the single
// demand path now keeps by construction: every consumed page is one
// demand read, no page is read that was not pinned, and the prefetch
// counters kept for reporting stay 0.

TEST_F(BufferPoolTest, PrefetchChargesDemandReadOnConsumption) {
  FileId f = NewFileWithPages(6);
  BufferPool pool(&disk_, 8);
  disk_.ResetStats();
  for (PageId p = 0; p < 4; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
    EXPECT_EQ(g.data()[0], std::byte{static_cast<unsigned char>(p)});
  }
  // Consumption charges exactly one demand read per page (the cost-model
  // counter), and no read is prefetch-class.
  EXPECT_EQ(disk_.stats().page_reads, 4);
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  EXPECT_EQ(pool.stats().misses, 4);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
  EXPECT_EQ(pool.stats().prefetch_wasted, 0);
}

TEST_F(BufferPoolTest, PrefetchedPagesAreEvictableByDemand) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 4);
  // Pages loaded earlier and not used since are ordinary LRU frames: once
  // the free frames are gone, demand pins must succeed by evicting them.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  for (PageId p = 2; p < 6; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
    EXPECT_EQ(g.data()[0], std::byte{static_cast<unsigned char>(p)});
  }
  EXPECT_EQ(pool.stats().evictions, 2);
  EXPECT_EQ(pool.stats().prefetch_wasted, 0);
  // Both early pages were the victims: pinning them again misses.
  pool.ResetStats();
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 2);
}

TEST_F(BufferPoolTest, EvictFileCancelsOutstandingPrefetches) {
  FileId f = NewFileWithPages(4);
  BufferPool pool(&disk_, 8);
  for (PageId p = 0; p < 4; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
    (void)g;
  }
  IOLAP_ASSERT_OK(pool.EvictFile(f));
  // No read is outstanding after the eviction and no page of the file
  // remains cached: the next pin is a demand miss that reads the disk.
  pool.ResetStats();
  disk_.ResetStats();
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
  EXPECT_EQ(disk_.stats().page_reads, 1);
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
}

TEST_F(BufferPoolTest, PrefetchBacksOffWhenPoolIsSaturated) {
  FileId f = NewFileWithPages(4);
  BufferPool pool(&disk_, 2);
  // Fill the pool with demand pages. Nothing but a later demand pin may
  // displace them, so without one no physical read happens.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  disk_.ResetStats();
  // The demand pages are still cached.
  pool.ResetStats();
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 0);
  EXPECT_EQ(pool.stats().evictions, 0);
  EXPECT_EQ(disk_.stats().page_reads, 0);
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
}

TEST_F(BufferPoolTest, PrefetchIsNoOpWhileUnconfigured) {
  NewFileWithPages(2);
  disk_.ResetStats();
  {
    // A pool that is never pinned reads nothing: it starts no thread and
    // issues no I/O of its own.
    BufferPool pool(&disk_, 4);
    EXPECT_EQ(pool.stats().misses, 0);
  }
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  EXPECT_EQ(disk_.stats().page_reads, 0);
}

TEST_F(BufferPoolTest, PinClaimsQueuedHintAndServicesOnlyTheTail) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 16);
  disk_.ResetStats();
  {
    // A pin services only the page it asks for: one demand read, and its
    // neighbours are not pulled in with it.
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2));
    EXPECT_EQ(g.data()[0], std::byte{2});
  }
  EXPECT_EQ(disk_.stats().page_reads, 1);
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 3)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(disk_.stats().page_reads, 4);
  EXPECT_EQ(pool.stats().misses, 4);
  EXPECT_EQ(pool.stats().hits, 0);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
}

TEST_F(BufferPoolTest, DestructorWritesBackDirtyPages) {
  FileId f = NewFileWithPages(2);
  {
    BufferPool pool(&disk_, 4);
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    g.data()[7] = std::byte{0x5A};
    g.MarkDirty();
    g.Release();
    // No FlushAll/FlushFile: the destructor alone must not lose the write.
  }
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 1, page));
  EXPECT_EQ(page[7], std::byte{0x5A});
}

TEST_F(BufferPoolTest, LruOrderIsRecencyBased) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  // Touch page 0 again so page 1 becomes LRU.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2)); (void)g; }
  pool.ResetStats();
  // Page 0 should still be cached, page 1 evicted.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  EXPECT_EQ(pool.stats().hits, 1);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 1);
}

// ---------------------------------------------------------------------------
// Sequential scans whose page order is known up front — the access pattern
// the allocation passes issue. The pool serves them with demand reads only;
// these cases pin the demand-I/O and lifetime invariants those scans rely on.

class PlannedPoolTest : public BufferPoolTest {
 protected:
  // Sequentially pins every page of `f` (npages), checks contents, returns
  // the demand page_reads the scan charged.
  int64_t ScanAll(BufferPool& pool, FileId f, int npages) {
    IoStats before = disk_.stats();
    for (int p = 0; p < npages; ++p) {
      auto guard = pool.Pin(f, p);
      EXPECT_TRUE(guard.ok()) << guard.status().ToString();
      if (guard.ok()) {
        EXPECT_EQ(guard->data()[0], std::byte(p)) << p;
      }
    }
    return disk_.stats().page_reads - before.page_reads;
  }
};

TEST_F(PlannedPoolTest, PlannedScanChargesSameDemandIoAsSerial) {
  constexpr int kPages = 64;
  FileId f = NewFileWithPages(kPages);
  for (int capacity : {8, 96}) {
    BufferPool pool(&disk_, capacity);
    IoStats before = disk_.stats();
    // A cold scan charges one demand read per page whatever the capacity.
    EXPECT_EQ(ScanAll(pool, f, kPages), kPages) << "capacity " << capacity;
    // A second scan re-reads only what the pool could not keep: LRU over a
    // sequential scan larger than the pool keeps nothing useful.
    const int64_t rescan = ScanAll(pool, f, kPages);
    EXPECT_EQ(rescan, capacity >= kPages ? 0 : kPages)
        << "capacity " << capacity;
    EXPECT_EQ((disk_.stats() - before).prefetch_reads, 0);
  }
}

TEST_F(PlannedPoolTest, EarlyEndAndDestructionAreSafe) {
  constexpr int kPages = 64;
  FileId f = NewFileWithPages(kPages);
  {
    BufferPool pool(&disk_, 16);
    disk_.ResetStats();
    // A scan that stops early leaves nothing behind but cached frames.
    EXPECT_EQ(ScanAll(pool, f, 4), 4);
    EXPECT_EQ(pool.pinned_pages(), 0u);
    // A second scan on the same pool starts cleanly and hits those frames.
    EXPECT_EQ(ScanAll(pool, f, 8), 4);
    // Leave a dirty frame for the destructor to write back.
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 5));
    g.data()[1] = std::byte{0x6B};
    g.MarkDirty();
  }
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 5, page));
  EXPECT_EQ(page[1], std::byte{0x6B});
}

TEST_F(PlannedPoolTest, EvictFileMidPlanDropsPlanState) {
  constexpr int kPages = 32;
  FileId f = NewFileWithPages(kPages);
  BufferPool pool(&disk_, 16);
  EXPECT_EQ(ScanAll(pool, f, 8), 8);
  IOLAP_ASSERT_OK(pool.EvictFile(f));
  // Post-eviction pins demand-read every page again and see correct bytes.
  EXPECT_EQ(ScanAll(pool, f, kPages), kPages);
}

}  // namespace
}  // namespace iolap
