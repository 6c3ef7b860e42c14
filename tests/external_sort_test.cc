#include "storage/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

struct Rec {
  int64_t key;
  int64_t payload;
};

// The sorter requires the normalized-key protocol (SorterKeyPrefix), so
// every comparator here is a functor with KeyPrefix. KeyedLess's prefix is
// the key with its sign bit flipped (so unsigned order is signed order):
// the radix sort and the merge's integer compares decide every order.
// Duplicate keys make the (stable) tie handling observable through the
// payload.
struct KeyedLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
  uint64_t KeyPrefix(const Rec& a) const {
    return static_cast<uint64_t>(a.key) ^ (uint64_t{1} << 63);
  }
};

// The same order behind a constant prefix: every chunk is one tie group,
// so the tie-group comparison sort and the merge's `less` fallback decide
// every order.
struct TiedLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
  uint64_t KeyPrefix(const Rec&) const { return 0; }
};

class ExternalSortTest : public ::testing::Test {
 protected:
  ExternalSortTest() : disk_(MakeTempDir()), pool_(&disk_, 16) {}

  TypedFile<Rec> MakeFile(const std::vector<Rec>& records) {
    auto file = TypedFile<Rec>::Create(disk_, "sort_input");
    EXPECT_TRUE(file.ok());
    auto appender = file->MakeAppender(pool_);
    for (const Rec& r : records) {
      EXPECT_TRUE(appender.Append(r).ok());
    }
    appender.Close();
    return *file;
  }

  std::vector<Rec> ReadAll(const TypedFile<Rec>& file) {
    std::vector<Rec> out;
    auto cursor = file.Scan(pool_);
    Rec r{};
    while (!cursor.done()) {
      EXPECT_TRUE(cursor.Next(&r).ok());
      out.push_back(r);
    }
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(ExternalSortTest, EmptyAndSingleton) {
  TypedFile<Rec> empty = MakeFile({});
  ExternalSorter<Rec> sorter(&disk_, &pool_, 4);
  IOLAP_ASSERT_OK(sorter.Sort(&empty, KeyedLess{}));
  EXPECT_EQ(empty.size(), 0);

  TypedFile<Rec> one = MakeFile({Rec{5, 50}});
  IOLAP_ASSERT_OK(sorter.Sort(&one, KeyedLess{}));
  auto records = ReadAll(one);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 5);
}

TEST_F(ExternalSortTest, InMemoryFastPath) {
  Rng rng(1);
  std::vector<Rec> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back(Rec{static_cast<int64_t>(rng.Uniform(1000)), i});
  }
  TypedFile<Rec> file = MakeFile(data);
  ExternalSorter<Rec> sorter(&disk_, &pool_, 8);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  auto got = ReadAll(file);
  std::sort(data.begin(), data.end(), KeyedLess{});
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].key, data[i].key);
}

// Property sweep, in place and streamed: sizes that hit the single-chunk
// fast path, a single merge pass, and two or more merge passes (at budget
// 3 the fan-in is 2, so three or more runs need a second pass), with
// budgets down to the minimum, for a prefix that decides the order
// (KeyedLess) and one that decides nothing (TiedLess). The oracle is
// std::stable_sort of the input: the sorter promises exactly that record
// sequence, which implies sortedness, no lost or duplicated records, and
// the tie order.
struct SweepParam {
  int n;
  int budget_pages;
  bool keyed;  // KeyedLess instead of TiedLess
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "(" << p.n << ", " << p.budget_pages << (p.keyed ? ", keyed)" : ")");
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (bool keyed : {false, true}) {
    for (int n : {0, 1, 255, 256, 257, 1000, 2304, 2305, 5000, 20000}) {
      for (int budget_pages : {3, 4, 8}) {
        params.push_back(SweepParam{n, budget_pages, keyed});
      }
    }
  }
  return params;
}

class ExternalSortSweep : public ExternalSortTest,
                          public ::testing::WithParamInterface<SweepParam> {};

TEST_P(ExternalSortSweep, SortsAndPreservesMultiset) {
  auto [n, budget_pages, keyed] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 1000003 +
          static_cast<uint64_t>(budget_pages));
  std::vector<Rec> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Small key space forces duplicates; payload records input order.
    data.push_back(Rec{static_cast<int64_t>(rng.Uniform(97)), i});
  }
  TypedFile<Rec> file = MakeFile(data);
  ExternalSorter<Rec> sorter(&disk_, &pool_, budget_pages);
  if (keyed) {
    IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  } else {
    IOLAP_ASSERT_OK(sorter.Sort(&file, TiedLess{}));
  }
  auto got = ReadAll(file);
  std::stable_sort(data.begin(), data.end(), KeyedLess{});
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, data[i].key) << "at " << i;
    ASSERT_EQ(got[i].payload, data[i].payload) << "at " << i;
  }
}

// Pages a streamed sort of n records writes within `budget` pages: each
// run once, then each intermediate pass (while more runs than the fan-in
// remain) its merged runs once. Never the final pass, and nothing at all
// when the input fits the budget.
int64_t StreamedSortWrites(int64_t n, int64_t budget) {
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int64_t chunk = budget * rpp;
  auto pages = [&](int64_t records) { return (records + rpp - 1) / rpp; };
  if (n <= chunk) return 0;
  std::vector<int64_t> runs;
  int64_t writes = 0;
  for (int64_t offset = 0; offset < n; offset += chunk) {
    runs.push_back(std::min(chunk, n - offset));
    writes += pages(runs.back());
  }
  const size_t fan_in = static_cast<size_t>(budget - 1);
  while (runs.size() > fan_in) {
    std::vector<int64_t> merged_runs;
    for (size_t g = 0; g < runs.size(); g += fan_in) {
      int64_t merged = 0;
      for (size_t i = g; i < std::min(runs.size(), g + fan_in); ++i) {
        merged += runs[i];
      }
      writes += pages(merged);
      merged_runs.push_back(merged);
    }
    runs = std::move(merged_runs);
  }
  return writes;
}

// SortInto hands the consumer exactly the stable sort, leaves the input's
// bytes as they were, and writes only run-generation and
// intermediate-pass pages.
TEST_P(ExternalSortSweep, SortIntoStreamsTheStableSortWithoutWritingIt) {
  auto [n, budget_pages, keyed] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 1000003 +
          static_cast<uint64_t>(budget_pages));
  std::vector<Rec> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    data.push_back(Rec{static_cast<int64_t>(rng.Uniform(97)), i});
  }
  TypedFile<Rec> file = MakeFile(data);
  IOLAP_ASSERT_OK(pool_.FlushAll());
  auto file_bytes = [&] {
    std::vector<std::byte> bytes(
        static_cast<size_t>(file.size_in_pages()) * kPageSize);
    for (int64_t p = 0; p < file.size_in_pages(); ++p) {
      EXPECT_TRUE(
          disk_.ReadPage(file.file_id(), p, bytes.data() + p * kPageSize)
              .ok());
    }
    return bytes;
  };
  const std::vector<std::byte> before = file_bytes();

  disk_.ResetStats();
  std::vector<Rec> got;
  auto consume = [&got](const Rec& r) {
    got.push_back(r);
    return Status::Ok();
  };
  ExternalSorter<Rec> sorter(&disk_, &pool_, budget_pages);
  if (keyed) {
    IOLAP_ASSERT_OK(sorter.SortInto(file, KeyedLess{}, consume));
  } else {
    IOLAP_ASSERT_OK(sorter.SortInto(file, TiedLess{}, consume));
  }
  EXPECT_EQ(disk_.stats().page_writes, StreamedSortWrites(n, budget_pages));

  std::stable_sort(data.begin(), data.end(), KeyedLess{});
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, data[i].key) << "at " << i;
    ASSERT_EQ(got[i].payload, data[i].payload) << "at " << i;
  }
  EXPECT_EQ(file.size(), n);
  EXPECT_TRUE(file_bytes() == before) << "SortInto modified its input";
}

INSTANTIATE_TEST_SUITE_P(SizesAndBudgets, ExternalSortSweep,
                         ::testing::ValuesIn(SweepParams()),
                         [](const auto& info) {
                           const SweepParam& p = info.param;
                           return "n" + std::to_string(p.n) + "_b" +
                                  std::to_string(p.budget_pages) +
                                  (p.keyed ? "_keyed" : "");
                         });

TEST_F(ExternalSortTest, TwoPassIoBudget) {
  // With n pages of data and a budget small enough to force exactly one
  // merge pass, the sorter should read and write each page about twice —
  // the paper's standard 2-pass sort assumption.
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int64_t budget = 8;
  const int64_t n_pages = 40;  // 40/8 = 5 runs, fan-in 7 => one merge pass
  std::vector<Rec> data;
  Rng rng(7);
  for (int64_t i = 0; i < n_pages * rpp; ++i) {
    data.push_back(Rec{static_cast<int64_t>(rng.Next() % 100000), i});
  }
  TypedFile<Rec> file = MakeFile(data);
  IOLAP_ASSERT_OK(pool_.FlushAll());
  disk_.ResetStats();
  ExternalSorter<Rec> sorter(&disk_, &pool_, budget);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  IoStats stats = disk_.stats();
  EXPECT_LE(stats.page_reads, 2 * n_pages + 4);
  EXPECT_LE(stats.page_writes, 2 * n_pages + 4);
  EXPECT_GE(stats.page_reads, 2 * n_pages);
  EXPECT_GE(stats.page_writes, 2 * n_pages);
}

TEST_F(ExternalSortTest, SortWithDirtyPoolPagesIsCoherent) {
  // Mutate a record through the pool, then sort: the sorter must see the
  // mutation (EvictFile flushes) and the pool must not serve stale pages
  // afterwards.
  std::vector<Rec> data;
  for (int i = 0; i < 1000; ++i) data.push_back(Rec{1000 - i, i});
  TypedFile<Rec> file = MakeFile(data);
  IOLAP_ASSERT_OK(file.Put(pool_, 0, Rec{-42, 999}));
  ExternalSorter<Rec> sorter(&disk_, &pool_, 3);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Rec first, file.Get(pool_, 0));
  EXPECT_EQ(first.key, -42);
  EXPECT_EQ(first.payload, 999);
}

TEST_F(ExternalSortTest, AlreadySortedStaysStable) {
  std::vector<Rec> data;
  for (int i = 0; i < 3000; ++i) data.push_back(Rec{i, i});
  TypedFile<Rec> file = MakeFile(data);
  ExternalSorter<Rec> sorter(&disk_, &pool_, 3);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  auto got = ReadAll(file);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, static_cast<int64_t>(i));
  }
}

std::vector<Rec> MakeRandomRecords(uint64_t seed, int n, int64_t key_space) {
  Rng rng(seed);
  std::vector<Rec> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    data.push_back(
        Rec{static_cast<int64_t>(rng.Uniform(
                static_cast<uint64_t>(key_space))),
            i});
  }
  return data;
}

TEST_F(ExternalSortTest, TailChunkSmallerThanBudgetSortsCorrectly) {
  // Budget 4 pages; input = 3 full chunks plus a 7-record tail, so the last
  // run is far smaller than the budget and the final output page is
  // partial.
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int n = static_cast<int>(3 * 4 * rpp + 7);
  std::vector<Rec> data = MakeRandomRecords(21, n, 1000);
  TypedFile<Rec> file = MakeFile(data);
  ExternalSorter<Rec> sorter(&disk_, &pool_, 4);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  auto got = ReadAll(file);
  std::stable_sort(data.begin(), data.end(), KeyedLess{});
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, data[i].key) << "at " << i;
  }
}

TEST_F(ExternalSortTest, SingleRunFastPathReadsAndWritesOnce) {
  // The whole range fits in the budget: no scratch files, one read and one
  // write per data page.
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int64_t n_pages = 6;
  std::vector<Rec> data =
      MakeRandomRecords(22, static_cast<int>(n_pages * rpp), 5000);
  TypedFile<Rec> file = MakeFile(data);
  IOLAP_ASSERT_OK(pool_.FlushAll());
  disk_.ResetStats();
  ExternalSorter<Rec> sorter(&disk_, &pool_, 8);
  IOLAP_ASSERT_OK(sorter.Sort(&file, KeyedLess{}));
  IoStats stats = disk_.stats();
  EXPECT_EQ(stats.page_reads, n_pages);
  EXPECT_EQ(stats.page_writes, n_pages);
}

// A merge that feeds a consumer writes nothing, so its k inputs share the
// whole budget: each run's pages arrive in blocks of budget/k, not
// budget/(k+1).
TEST_F(ExternalSortTest, StreamedMergeReadsRunsInBudgetOverKBlocks) {
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int64_t budget = 6;
  const int64_t run_pages = budget;  // run generation sorts budget pages
  // Two runs whose keys interleave (evens, then odds), so the merge drains
  // their blocks in turn.
  std::vector<Rec> data;
  for (int64_t parity : {0, 1}) {
    for (int64_t i = 0; i < run_pages * rpp; ++i) {
      data.push_back(Rec{2 * i + parity, i});
    }
  }
  TypedFile<Rec> file = MakeFile(data);
  IOLAP_ASSERT_OK(pool_.FlushAll());
  disk_.ResetStats();
  std::vector<PageId> merge_reads;
  disk_.SetFaultInjector([&](char op, FileId f, PageId page) {
    if (op == 'r' && f != file.file_id()) merge_reads.push_back(page);
    return Status::Ok();
  });
  ExternalSorter<Rec> sorter(&disk_, &pool_, budget);
  int64_t consumed = 0;
  Status st = sorter.SortInto(file, KeyedLess{}, [&](const Rec& r) {
    EXPECT_EQ(r.key, consumed++);
    return Status::Ok();
  });
  disk_.SetFaultInjector(nullptr);
  IOLAP_ASSERT_OK(st);
  EXPECT_EQ(consumed, static_cast<int64_t>(data.size()));
  // Run 0 is scratch pages [0, 6), run 1 pages [6, 12); blocks of 3.
  const std::vector<PageId> want = {0, 1, 2, 6, 7, 8, 3, 4, 5, 9, 10, 11};
  EXPECT_EQ(merge_reads, want);
  // Counted pages: every page read once to make the runs and once to merge.
  EXPECT_EQ(disk_.stats().page_reads, 4 * run_pages);
  EXPECT_EQ(disk_.stats().page_writes, 2 * run_pages);
}

// Sort's `prepare` rewrites every record before it is keyed, on the
// in-memory fast path and through run generation and the merge alike.
TEST_F(ExternalSortTest, PrepareRewritesRecordsBeforeKeying) {
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  for (int64_t n_pages : {int64_t{1}, int64_t{20}}) {
    SCOPED_TRACE("pages " + std::to_string(n_pages));
    std::vector<Rec> data =
        MakeRandomRecords(31, static_cast<int>(n_pages * rpp - 3), 5000);
    TypedFile<Rec> file = MakeFile(data);
    ExternalSorter<Rec> sorter(&disk_, &pool_, 4);
    // Negating the key reverses the order the file ends up in.
    IOLAP_ASSERT_OK(
        sorter.Sort(&file, KeyedLess{}, [](Rec& r) { r.key = -r.key; }));
    for (Rec& r : data) r.key = -r.key;
    std::stable_sort(data.begin(), data.end(), KeyedLess{});
    std::vector<Rec> got = ReadAll(file);
    ASSERT_EQ(got.size(), data.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, data[i].key) << "at " << i;
      ASSERT_EQ(got[i].payload, data[i].payload) << "at " << i;
    }
  }
}

TEST_F(ExternalSortTest, RangeEndingMidPagePreservesNeighbours) {
  // Sort only [rpp, rpp + span) where the range ends mid-page: records
  // before, after, and the tail sharing the range's last page must come out
  // untouched. Budget 8 takes the in-memory fast path; budget 3 spills to
  // runs and merges, whose final partial page is a read-modify-write.
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  const int64_t span = 3 * rpp + rpp / 3;
  const int64_t begin = rpp;
  const int n = static_cast<int>(6 * rpp);
  for (int64_t budget : {8, 3}) {
    std::vector<Rec> data;
    for (int i = 0; i < n; ++i) data.push_back(Rec{n - i, i});
    TypedFile<Rec> file = MakeFile(data);
    ExternalSorter<Rec> sorter(&disk_, &pool_, budget);
    IOLAP_ASSERT_OK(
        sorter.SortRange(&file, begin, begin + span, KeyedLess{}));
    auto got = ReadAll(file);
    ASSERT_EQ(got.size(), data.size());
    std::stable_sort(data.begin() + begin, data.begin() + begin + span,
                     KeyedLess{});
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, data[i].key) << "budget " << budget << " at " << i;
      EXPECT_EQ(got[i].payload, data[i].payload)
          << "budget " << budget << " at " << i;
    }
  }
}

TEST_F(ExternalSortTest, RangeEndingBeforeBeginIsOutOfRange) {
  const int64_t rpp = TypedFile<Rec>::kRecordsPerPage;
  std::vector<Rec> data = MakeRandomRecords(23, static_cast<int>(2 * rpp), 50);
  TypedFile<Rec> file = MakeFile(data);
  ExternalSorter<Rec> sorter(&disk_, &pool_, 3);
  EXPECT_EQ(sorter.SortRange(&file, rpp, rpp - 1, KeyedLess{}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sorter.SortRange(&file, 0, -5, KeyedLess{}).code(),
            StatusCode::kOutOfRange);
  auto got = ReadAll(file);
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].payload, data[i].payload) << "file changed at " << i;
  }
}

}  // namespace
}  // namespace iolap
