#include "rtree/paged_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "storage/storage_env.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Rect MakeRect2(int32_t x0, int32_t y0, int32_t x1, int32_t y1) {
  Rect r;
  r.lo[0] = x0;
  r.lo[1] = y0;
  r.hi[0] = x1;
  r.hi[1] = y1;
  return r;
}

TEST(RectTest, IntersectAndContain) {
  Rect a = MakeRect2(0, 0, 10, 10);
  Rect b = MakeRect2(5, 5, 15, 15);
  Rect c = MakeRect2(11, 0, 12, 10);
  EXPECT_TRUE(RectsIntersect(a, b, 2));
  EXPECT_FALSE(RectsIntersect(a, c, 2));
  EXPECT_TRUE(RectsIntersect(b, c, 2));
  EXPECT_TRUE(RectContains(a, MakeRect2(2, 3, 4, 5), 2));
  EXPECT_FALSE(RectContains(a, b, 2));
  // Touching edges count as intersecting (inclusive bounds).
  EXPECT_TRUE(RectsIntersect(a, MakeRect2(10, 10, 20, 20), 2));
}

TEST(PagedRTreeTest, EmptyTree) {
  StorageEnv env(MakeTempDir(), 16);
  IOLAP_ASSERT_OK_AND_ASSIGN(PagedRTree tree,
                             PagedRTree::Create(&env.disk(), &env.pool(), 2));
  std::vector<int64_t> hits;
  IOLAP_ASSERT_OK(tree.Search(MakeRect2(0, 0, 100, 100), &hits));
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(tree.size(), 0);
  bool removed = true;
  IOLAP_ASSERT_OK(tree.Remove(MakeRect2(0, 0, 1, 1), 7, &removed));
  EXPECT_FALSE(removed);
  IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, tree.CheckInvariants());
  EXPECT_TRUE(ok);
}

TEST(PagedRTreeTest, GrowsAndFindsAcrossSplits) {
  StorageEnv env(MakeTempDir(), 16);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      PagedRTree tree,
      PagedRTree::Create(&env.disk(), &env.pool(), 2, /*max_entries=*/4));
  for (int i = 0; i < 200; ++i) {
    IOLAP_ASSERT_OK(tree.Insert(MakeRect2(i, 0, i + 2, 2), i));
  }
  EXPECT_EQ(tree.size(), 200);
  EXPECT_GT(tree.height(), 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, tree.CheckInvariants());
  EXPECT_TRUE(ok);
  std::vector<int64_t> hits;
  IOLAP_ASSERT_OK(tree.Search(MakeRect2(100, 1, 100, 1), &hits));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int64_t>{98, 99, 100}));
}

TEST(PagedRTreeTest, SearchIsCountedAndSublinear) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      PagedRTree tree,
      PagedRTree::Create(&env.disk(), &env.pool(), 2, /*max_entries=*/8));
  for (int i = 0; i < 1000; ++i) {
    IOLAP_ASSERT_OK(tree.Insert(MakeRect2(i, 0, i, 0), i));
  }
  tree.ResetStats();
  std::vector<int64_t> hits;
  IOLAP_ASSERT_OK(tree.Search(MakeRect2(500, 0, 501, 0), &hits));
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_GT(tree.nodes_accessed(), 0);
  EXPECT_LT(tree.nodes_accessed(), 40);
}

// Insert reads each node on its root-to-leaf path once: the fix-up walks
// back up on the images the descent read. (With fan-out 72, 300 entries
// never split an inner node, whose split re-points its moved children.)
TEST(PagedRTreeTest, InsertReadsEachPathNodeOnce) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(PagedRTree tree,
                             PagedRTree::Create(&env.disk(), &env.pool(), 2));
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const int32_t x = static_cast<int32_t>(rng.Uniform(1000));
    const int32_t y = static_cast<int32_t>(rng.Uniform(1000));
    const int height = tree.height();
    const int64_t before = tree.nodes_accessed();
    IOLAP_ASSERT_OK(tree.Insert(MakeRect2(x, y, x + 3, y + 3), i));
    EXPECT_EQ(tree.nodes_accessed() - before, height) << "insert " << i;
  }
  EXPECT_EQ(tree.height(), 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, tree.CheckInvariants());
  EXPECT_TRUE(ok);
}

TEST(PagedRTreeTest, SurvivesTinyBufferPool) {
  // 3 frames: every node access goes through pin/evict churn.
  StorageEnv env(MakeTempDir(), 3);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      PagedRTree tree,
      PagedRTree::Create(&env.disk(), &env.pool(), 2, /*max_entries=*/4));
  for (int i = 0; i < 300; ++i) {
    IOLAP_ASSERT_OK(tree.Insert(MakeRect2(i % 50, i / 50, i % 50 + 3, i / 50 + 3), i));
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, tree.CheckInvariants());
  EXPECT_TRUE(ok);
  EXPECT_GT(env.disk().stats().total(), 0);  // it really hit the disk
}

// Randomized test: under an insert/remove/search workload the paged tree
// must answer every search exactly like a brute-force scan of the live
// items, and keep its invariants after every mutation.
class PagedRTreeDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PagedRTreeDifferential, MatchesBruteForce) {
  auto [dims, fanout] = GetParam();
  StorageEnv env(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      PagedRTree paged,
      PagedRTree::Create(&env.disk(), &env.pool(), dims, fanout));

  Rng rng(dims * 31 + fanout);
  struct Item {
    Rect rect;
    int64_t id;
    bool alive;
  };
  std::vector<Item> items;
  int64_t next_id = 0;
  int64_t live_count = 0;
  for (int step = 0; step < 500; ++step) {
    double action = rng.NextDouble();
    if (action < 0.55 || items.empty()) {
      Rect r;
      for (int d = 0; d < dims; ++d) {
        int32_t a = static_cast<int32_t>(rng.Uniform(150));
        r.lo[d] = a;
        r.hi[d] = a + static_cast<int32_t>(rng.Uniform(25));
      }
      IOLAP_ASSERT_OK(paged.Insert(r, next_id));
      items.push_back(Item{r, next_id, true});
      ++next_id;
      ++live_count;
    } else if (action < 0.8) {
      std::vector<size_t> live;
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].alive) live.push_back(i);
      }
      if (!live.empty()) {
        size_t pick = live[rng.Uniform(live.size())];
        bool removed = false;
        IOLAP_ASSERT_OK(
            paged.Remove(items[pick].rect, items[pick].id, &removed));
        EXPECT_TRUE(removed);
        items[pick].alive = false;
        --live_count;
      }
    } else {
      Rect q;
      for (int d = 0; d < dims; ++d) {
        int32_t a = static_cast<int32_t>(rng.Uniform(170));
        q.lo[d] = a;
        q.hi[d] = a + static_cast<int32_t>(rng.Uniform(50));
      }
      std::vector<int64_t> got;
      IOLAP_ASSERT_OK(paged.Search(q, &got));
      std::set<int64_t> want;
      for (const Item& item : items) {
        if (item.alive && RectsIntersect(item.rect, q, dims)) {
          want.insert(item.id);
        }
      }
      std::set<int64_t> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << "duplicates";
      EXPECT_EQ(got_set, want);
      continue;
    }
    EXPECT_EQ(paged.size(), live_count);
    IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, paged.CheckInvariants());
    ASSERT_TRUE(ok) << "at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndFanouts, PagedRTreeDifferential,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(4, 16, 0 /* full page */)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PagedRTreeTest, PageReuseAfterHeavyDeletion) {
  StorageEnv env(MakeTempDir(), 16);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      PagedRTree tree,
      PagedRTree::Create(&env.disk(), &env.pool(), 2, /*max_entries=*/4));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 150; ++i) {
      IOLAP_ASSERT_OK(tree.Insert(MakeRect2(i, round, i + 1, round + 1), i));
    }
    for (int i = 0; i < 150; ++i) {
      bool removed = false;
      IOLAP_ASSERT_OK(
          tree.Remove(MakeRect2(i, round, i + 1, round + 1), i, &removed));
      EXPECT_TRUE(removed);
    }
    EXPECT_EQ(tree.size(), 0);
    IOLAP_ASSERT_OK_AND_ASSIGN(bool ok, tree.CheckInvariants());
    EXPECT_TRUE(ok);
  }
  // Freed pages are recycled: the file stays bounded across rounds.
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t pages,
                             env.disk().SizeInPages(0 /* first file */));
  EXPECT_LT(pages, 200);
}

}  // namespace
}  // namespace iolap
