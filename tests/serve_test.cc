// The query-serving subsystem: cached answers must be indistinguishable
// from fresh scans — across cache misses, hits, LRU eviction, and the
// selective invalidation driven by maintenance batches' touched boxes.

#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/workload.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

FactRecord MakeFactAt(const StarSchema& schema, FactId id, double measure,
                      NodeId n0, NodeId n1) {
  FactRecord f;
  f.fact_id = id;
  f.measure = measure;
  f.node[0] = n0;
  f.node[1] = n1;
  f.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
  f.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
  return f;
}

constexpr AggregateFunc kAllFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
    AggregateFunc::kMin, AggregateFunc::kMax};

/// Paper-example fixture: the Table 2 facts behind a MaintenanceManager.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
    StorageEnv scratch(MakeTempDir(), 32);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto gen,
                               MakePaperExampleFacts(scratch, schema_));
    auto cursor = gen.Scan(scratch.pool());
    FactRecord f;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&f));
      facts_.push_back(f);
    }
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  std::vector<QueryRegion> ProbeRegions() const {
    std::vector<QueryRegion> regions = {QueryRegion::All()};
    for (NodeId node : schema_.dim(0).nodes_at_level(1)) {
      regions.push_back(QueryRegion::All().With(0, node));
    }
    for (NodeId node : schema_.dim(1).nodes_at_level(2)) {
      regions.push_back(QueryRegion::All().With(1, node));
    }
    return regions;
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(ServeTest, CachedAggregateMatchesEngine) {
  ServeOptions opts;
  QueryService service(manager_.get(), opts);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      AnswerStats as;
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult cold,
                                 service.Aggregate(region, func,
                                                   AnswerSpec::Exact(), &as));
      EXPECT_FALSE(as.cache_hit);
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult warm,
                                 service.Aggregate(region, func,
                                                   AnswerSpec::Exact(), &as));
      EXPECT_TRUE(as.cache_hit);
      EXPECT_NEAR(cold.value, expected.value, 1e-9);
      EXPECT_NEAR(warm.value, expected.value, 1e-9);
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult uncached,
                                 service.UncachedAggregate(region, func));
      EXPECT_NEAR(uncached.value, expected.value, 1e-9);
    }
  }
  EXPECT_GT(service.cache()->stats().hits, 0);
}

TEST_F(ServeTest, CachedRollUpMatchesEngine) {
  ServeOptions opts;
  QueryService service(manager_.get(), opts);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (int level = 1; level <= schema_.dim(0).num_levels(); ++level) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto expected, engine.RollUp(QueryRegion::All(), 0, level, func));
      bool hit = true;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto cold,
          service.RollUp(QueryRegion::All(), 0, level, func, nullptr, &hit));
      EXPECT_FALSE(hit);
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto warm,
          service.RollUp(QueryRegion::All(), 0, level, func, nullptr, &hit));
      EXPECT_TRUE(hit);
      ASSERT_EQ(cold.size(), expected.size());
      ASSERT_EQ(warm.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(cold[i].value, expected[i].value, 1e-9);
        EXPECT_NEAR(warm[i].value, expected[i].value, 1e-9);
      }
    }
  }
}

TEST_F(ServeTest, RollUpRejectsBadArguments) {
  QueryService service(manager_.get(), ServeOptions{});
  EXPECT_FALSE(
      service.RollUp(QueryRegion::All(), 7, 1, AggregateFunc::kSum).ok());
  EXPECT_FALSE(
      service.RollUp(QueryRegion::All(), 0, 9, AggregateFunc::kSum).ok());
  // With a cached RollUp(All, 0, 1), arguments that differ from it only
  // above a byte's range must still be rejected, not served from the cache.
  bool cache_hit = false;
  IOLAP_ASSERT_OK(
      service.RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum).status());
  IOLAP_ASSERT_OK(service
                      .RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum,
                              nullptr, &cache_hit)
                      .status());
  ASSERT_TRUE(cache_hit);
  for (const auto& [dim, level] :
       std::vector<std::pair<int, int>>{{256, 1}, {0, 257}, {-256, 1}}) {
    Result<std::vector<AggregateResult>> r =
        service.RollUp(QueryRegion::All(), dim, level, AggregateFunc::kSum);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "dim " << dim << " level " << level;
  }
}

TEST_F(ServeTest, PartitionedScanMatchesSerial) {
  ServeOptions opts;
  opts.num_threads = 4;
  opts.min_partition_rows = 1;  // force real partitioning on a tiny EDB
  QueryService service(manager_.get(), opts);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult parallel,
                                 service.UncachedAggregate(region, func));
      EXPECT_NEAR(parallel.value, expected.value, 1e-9);
      EXPECT_NEAR(parallel.sum, expected.sum, 1e-9);
      EXPECT_NEAR(parallel.count, expected.count, 1e-9);
    }
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto expected_groups,
      engine.RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto parallel_groups,
      service.UncachedRollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum));
  ASSERT_EQ(parallel_groups.size(), expected_groups.size());
  for (size_t i = 0; i < expected_groups.size(); ++i) {
    EXPECT_NEAR(parallel_groups[i].value, expected_groups[i].value, 1e-9);
  }
}

TEST_F(ServeTest, CompletionsOfMatchesEngineAndRejectsTombstoneId) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto expected, engine.CompletionsOf(8));
  IOLAP_ASSERT_OK_AND_ASSIGN(auto got, service.CompletionsOf(8));
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].fact_id, expected[i].fact_id);
    EXPECT_DOUBLE_EQ(got[i].weight, expected[i].weight);
  }
  EXPECT_EQ(service.CompletionsOf(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, MutationBumpsGenerationAndRefreshesAnswers) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(service.generation(), 0);

  int64_t gen = -1;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult before,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum,
                        AnswerSpec::Exact(), nullptr, &gen));
  EXPECT_EQ(gen, 0);
  EXPECT_NEAR(before.value, 1705.0, 1e-9);

  // Raise p1's measure by 900: the global sum must follow on the next
  // query, cache or no cache.
  FactUpdate u{facts_[0], facts_[0].measure + 900};
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.ApplyUpdates({u}, &stats));
  EXPECT_EQ(service.generation(), 1);
  EXPECT_GT(stats.touched_boxes.size(), 0u);

  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult after,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as, &gen));
  EXPECT_EQ(gen, 1);
  EXPECT_FALSE(as.cache_hit);  // the global region intersects every touched box
  EXPECT_NEAR(after.value, 1705.0 + 900, 1e-9);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult rescan,
      engine.Aggregate(QueryRegion::All(), AggregateFunc::kSum));
  EXPECT_NEAR(after.value, rescan.value, 1e-9);
}

TEST_F(ServeTest, TombstonesSkippedOnCachedPath) {
  QueryService service(manager_.get(), ServeOptions{});
  // Deleting p2 tombstones its EDB row in place (weight 0, fact_id -1).
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}, &stats));
  EXPECT_GE(stats.edb_rows_tombstoned, 1);

  // Both the miss-scan and the subsequent hit must skip the tombstones,
  // exactly like the (tombstone-skipping) QueryEngine rescan.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult expected,
        engine.Aggregate(region, AggregateFunc::kCount));
    AnswerStats as;
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult cold,
        service.Aggregate(region, AggregateFunc::kCount,
                          AnswerSpec::Exact(), &as));
    EXPECT_FALSE(as.cache_hit);
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult warm,
        service.Aggregate(region, AggregateFunc::kCount,
                          AnswerSpec::Exact(), &as));
    EXPECT_TRUE(as.cache_hit);
    EXPECT_NEAR(cold.value, expected.value, 1e-9);
    EXPECT_NEAR(warm.value, expected.value, 1e-9);
  }
  // The global count dropped by exactly the deleted (precise) fact.
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult count,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kCount));
  EXPECT_NEAR(count.value, 13.0, 1e-9);
}

TEST_F(ServeTest, DeletedExtremumIsNeverServedStale) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryEngine engine(&env_, &schema_, &manager_->edb());

  // Warm the cache with kMin/kMax over every probe region, remembering the
  // pre-delete global extrema.
  for (const QueryRegion& region : ProbeRegions()) {
    IOLAP_ASSERT_OK(service.Aggregate(region, AggregateFunc::kMin).status());
    IOLAP_ASSERT_OK(service.Aggregate(region, AggregateFunc::kMax).status());
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult max_before,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kMax));

  // Delete the fact carrying the largest measure: its rows vanish, so any
  // cached max that still reported it would be a stale extremum.
  size_t max_idx = 0;
  for (size_t i = 1; i < facts_.size(); ++i) {
    if (facts_[i].measure > facts_[max_idx].measure) max_idx = i;
  }
  EXPECT_NEAR(max_before.value, facts_[max_idx].measure, 1e-9);
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[max_idx]}));

  // Deletes are non-subtractive for extrema: a cached min/max can only be
  // trusted if its entry was invalidated and recomputed. Every served
  // answer must now equal a fresh rescan, hit or miss.
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : {AggregateFunc::kMin, AggregateFunc::kMax}) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult served,
                                 service.Aggregate(region, func));
      EXPECT_NEAR(served.value, expected.value, 1e-9);
    }
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult max_after,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kMax));
  EXPECT_LT(max_after.value, max_before.value);
}

TEST_F(ServeTest, CompactionKeepsCachedExtremaCorrect) {
  QueryService service(manager_.get(), ServeOptions{});
  // Tombstone a row first so Compact() has real work, then cache kMin/kMax
  // over every probe region at the post-delete generation.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  std::vector<double> min_before;
  std::vector<double> max_before;
  for (const QueryRegion& region : ProbeRegions()) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mn, service.Aggregate(region, AggregateFunc::kMin));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mx, service.Aggregate(region, AggregateFunc::kMax));
    min_before.push_back(mn.value);
    max_before.push_back(mx.value);
  }

  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GE(removed, 1);

  // Compaction is a physical rewrite with identical logical content: every
  // cached extremum must survive as a hit and still equal a fresh rescan.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  const std::vector<QueryRegion> regions = ProbeRegions();
  for (size_t i = 0; i < regions.size(); ++i) {
    AnswerStats as;
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mn,
        service.Aggregate(regions[i], AggregateFunc::kMin,
                          AnswerSpec::Exact(), &as));
    EXPECT_TRUE(as.cache_hit);
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mx,
        service.Aggregate(regions[i], AggregateFunc::kMax,
                          AnswerSpec::Exact(), &as));
    EXPECT_TRUE(as.cache_hit);
    EXPECT_NEAR(mn.value, min_before[i], 1e-9);
    EXPECT_NEAR(mx.value, max_before[i], 1e-9);
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mn_rescan,
        engine.Aggregate(regions[i], AggregateFunc::kMin));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult mx_rescan,
        engine.Aggregate(regions[i], AggregateFunc::kMax));
    EXPECT_NEAR(mn.value, mn_rescan.value, 1e-9);
    EXPECT_NEAR(mx.value, mx_rescan.value, 1e-9);
  }
}

TEST_F(ServeTest, CompactionKeepsCacheAndGeneration) {
  QueryService service(manager_.get(), ServeOptions{});
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}, &stats));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult before,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum));
  const int64_t gen_before = service.generation();
  const int64_t entries_before = service.cache()->entries();

  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GE(removed, 1);
  // Logical content unchanged: same generation, same cache, same answer.
  EXPECT_EQ(service.generation(), gen_before);
  EXPECT_EQ(service.cache()->entries(), entries_before);
  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult after,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_TRUE(as.cache_hit);
  EXPECT_NEAR(after.value, before.value, 1e-9);
}

TEST_F(ServeTest, LruEvictionBoundsTheCache) {
  ServeOptions opts;
  opts.cache_slots = 2;
  QueryService service(manager_.get(), opts);
  std::vector<QueryRegion> regions = ProbeRegions();
  ASSERT_GE(regions.size(), 3u);
  for (const QueryRegion& region : regions) {
    IOLAP_ASSERT_OK(
        service.Aggregate(region, AggregateFunc::kSum).status());
  }
  EXPECT_LE(service.cache()->entries(), 2);
  EXPECT_LE(service.cache()->used_slots(), 2);
  EXPECT_GT(service.cache()->stats().evicted_entries, 0);
  // The oldest region was evicted: querying it again is a miss, and the
  // recomputed answer still matches a fresh scan.
  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult again,
      service.Aggregate(regions[0], AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_FALSE(as.cache_hit);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult rescan,
      service.UncachedAggregate(regions[0], AggregateFunc::kSum));
  EXPECT_NEAR(again.value, rescan.value, 1e-9);
}

TEST_F(ServeTest, OversizedRollUpIsNotAdmitted) {
  ServeOptions opts;
  opts.cache_slots = 2;  // a level-1 rollup of dim 0 has 4 groups
  QueryService service(manager_.get(), opts);
  bool hit = true;
  IOLAP_ASSERT_OK(service
                      .RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum,
                              nullptr, &hit)
                      .status());
  EXPECT_FALSE(hit);
  IOLAP_ASSERT_OK(service
                      .RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum,
                              nullptr, &hit)
                      .status());
  EXPECT_FALSE(hit);  // still a miss: 4 slots never fit in a 2-slot cache
  EXPECT_EQ(service.cache()->entries(), 0);
}

TEST_F(ServeTest, ReadOnlyServiceRejectsMutations) {
  QueryService service(&env_, &schema_, &manager_->edb(), ServeOptions{});
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult total,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum));
  EXPECT_NEAR(total.value, 1705.0, 1e-9);
  FactUpdate u{facts_[0], 1.0};
  EXPECT_EQ(service.ApplyUpdates({u}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.InsertFacts({facts_[0]}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.DeleteFacts({facts_[0]}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Compact().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.generation(), 0);
}

/// Two spatially separated component groups, so a mutation in one half
/// exercises *selective* invalidation: the other half's cached results
/// must survive.
class SelectiveInvalidationTest : public ::testing::Test {
 protected:
  SelectiveInvalidationTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    std::vector<Hierarchy> dims;
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                               HierarchyBuilder::Uniform("D0", {2, 4}));
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                               HierarchyBuilder::Uniform("D1", {2, 2}));
    dims.push_back(d0);
    dims.push_back(d1);
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, StarSchema::Create(std::move(dims)));

    // Half A lives under D0's first level-2 node (leaves 0..3), half B
    // under the second (leaves 4..7); nothing spans the two.
    half_a_ = schema_.dim(0).nodes_at_level(2)[0];
    half_b_ = schema_.dim(0).nodes_at_level(2)[1];
    const auto& d0_leaves = schema_.dim(0).nodes_at_level(1);
    const auto& d1_leaves = schema_.dim(1).nodes_at_level(1);
    facts_ = {
        MakeFactAt(schema_, 1, 10, d0_leaves[0], d1_leaves[0]),
        MakeFactAt(schema_, 2, 20, d0_leaves[1], d1_leaves[1]),
        MakeFactAt(schema_, 3, 30, half_a_, d1_leaves[0]),  // imprecise in A
        MakeFactAt(schema_, 4, 40, d0_leaves[4], d1_leaves[0]),
        MakeFactAt(schema_, 5, 50, d0_leaves[5], d1_leaves[1]),
        MakeFactAt(schema_, 6, 60, half_b_, d1_leaves[1]),  // imprecise in B
    };
    AllocationOptions options;
    options.policy = PolicyKind::kMeasure;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  StorageEnv env_;
  StarSchema schema_;
  NodeId half_a_ = 0;
  NodeId half_b_ = 0;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(SelectiveInvalidationTest, UnrelatedMutationKeepsCacheEntry) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryRegion region_a = QueryRegion::All().With(0, half_a_);
  QueryRegion region_b = QueryRegion::All().With(0, half_b_);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_before,
      service.Aggregate(region_a, AggregateFunc::kSum));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_before,
      service.Aggregate(region_b, AggregateFunc::kSum));
  EXPECT_NEAR(a_before.value, 10 + 20 + 30, 1e-9);
  EXPECT_NEAR(b_before.value, 40 + 50 + 60, 1e-9);
  ASSERT_EQ(service.cache()->entries(), 2);

  // Mutate half B only: fact 4's measure changes, touching B's component
  // box but nothing in A.
  FactUpdate u{facts_[3], 400.0};
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.ApplyUpdates({u}, &stats));
  ASSERT_GT(stats.touched_boxes.size(), 0u);

  // A's entry survived (hit, same value); B's was invalidated (miss, new
  // value) — and both equal a fresh rescan at the new generation.
  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after,
      service.Aggregate(region_a, AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_TRUE(as.cache_hit);
  EXPECT_NEAR(a_after.value, a_before.value, 1e-9);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_after,
      service.Aggregate(region_b, AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_FALSE(as.cache_hit);
  EXPECT_NEAR(b_after.value, 400 + 50 + 60, 1e-9);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_rescan,
      service.UncachedAggregate(region_a, AggregateFunc::kSum));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_rescan,
      service.UncachedAggregate(region_b, AggregateFunc::kSum));
  EXPECT_NEAR(a_after.value, a_rescan.value, 1e-9);
  EXPECT_NEAR(b_after.value, b_rescan.value, 1e-9);
  EXPECT_EQ(service.cache()->stats().invalidated_entries, 1);
}

TEST_F(SelectiveInvalidationTest, IntersectingInsertDropsEntry) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryRegion region_a = QueryRegion::All().With(0, half_a_);
  IOLAP_ASSERT_OK(
      service.Aggregate(region_a, AggregateFunc::kSum).status());
  ASSERT_EQ(service.cache()->entries(), 1);

  // Insert a precise fact inside half A: its region rect intersects the
  // cached region, so the entry must go.
  FactRecord f = MakeFactAt(schema_, 7, 70, schema_.dim(0).nodes_at_level(1)[2],
                            schema_.dim(1).nodes_at_level(1)[0]);
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.InsertFacts({f}, &stats));

  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after,
      service.Aggregate(region_a, AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_FALSE(as.cache_hit);
  EXPECT_NEAR(a_after.value, 10 + 20 + 30 + 70, 1e-9);
}

TEST_F(SelectiveInvalidationTest, DeleteInOneHalfKeepsOtherHalfCached) {
  QueryService service(manager_.get(), ServeOptions{});
  QueryRegion region_a = QueryRegion::All().With(0, half_a_);
  QueryRegion region_b = QueryRegion::All().With(0, half_b_);
  IOLAP_ASSERT_OK(
      service.Aggregate(region_a, AggregateFunc::kSum).status());
  IOLAP_ASSERT_OK(
      service.Aggregate(region_b, AggregateFunc::kCount).status());

  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[4]}, &stats));  // fact 5, in B

  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after,
      service.Aggregate(region_a, AggregateFunc::kSum,
                        AnswerSpec::Exact(), &as));
  EXPECT_TRUE(as.cache_hit);
  EXPECT_NEAR(a_after.value, 10 + 20 + 30, 1e-9);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_after,
      service.Aggregate(region_b, AggregateFunc::kCount,
                        AnswerSpec::Exact(), &as));
  EXPECT_FALSE(as.cache_hit);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_rescan,
      service.UncachedAggregate(region_b, AggregateFunc::kCount));
  EXPECT_NEAR(b_after.value, b_rescan.value, 1e-9);
}

// ---------------------------------------------------------------------------
// AggregateCache shard-mask and answer-mode edge cases.

class CacheMaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
  }

  AggregateCacheKey KeyFor(int dim, NodeId node,
                           AnswerMode mode = AnswerMode::kExact) const {
    return AggregateCache::MakeAggregateKey(
        schema_, QueryRegion::All().With(dim, node), AggregateFunc::kSum,
        mode);
  }

  Rect BoxAll() const { return RegionToRect(schema_, QueryRegion::All()); }

  StarSchema schema_;
};

TEST_F(CacheMaskTest, InvalidateShardsEdgeCases) {
  AggregateCache cache(64);
  const std::vector<NodeId> leaves = schema_.dim(0).nodes_at_level(1);
  // Entry per shard mask: shard 0, shard 2, and one that read shards 0-2.
  cache.Insert(KeyFor(0, leaves[0]), BoxAll(), {AggregateResult{}},
               uint64_t{1} << 0);
  cache.Insert(KeyFor(0, leaves[1]), BoxAll(), {AggregateResult{}},
               uint64_t{1} << 2);
  cache.Insert(KeyFor(0, leaves[2]), BoxAll(), {AggregateResult{}},
               (uint64_t{1} << 3) - 1);
  ASSERT_EQ(cache.entries(), 3);

  // Mask 0 is a no-op batch: nothing can have been touched.
  EXPECT_EQ(cache.InvalidateShards(0), 0);
  EXPECT_EQ(cache.entries(), 3);

  // A mask far wider than the live shard count drops only entries whose
  // masks intersect it — here the bit-2 and bits-0..2 entries.
  EXPECT_EQ(cache.InvalidateShards(~uint64_t{0} << 1), 2);
  EXPECT_EQ(cache.entries(), 1);

  // The all-shards mask (the default Insert mask is also ~0) drops
  // everything that remains.
  cache.Insert(KeyFor(0, leaves[3]), BoxAll(), {AggregateResult{}});
  EXPECT_EQ(cache.InvalidateShards(~uint64_t{0}), 2);
  EXPECT_EQ(cache.entries(), 0);
}

TEST_F(CacheMaskTest, AnswerModeTagsKeysApart) {
  const NodeId leaf = schema_.dim(0).nodes_at_level(1)[0];
  const AggregateCacheKey exact = KeyFor(0, leaf, AnswerMode::kExact);
  const AggregateCacheKey bounded = KeyFor(0, leaf, AnswerMode::kBounded);
  EXPECT_FALSE(exact == bounded);

  AggregateCache cache(64);
  AggregateResult exact_v;
  exact_v.value = 1.0;
  AggregateResult bounded_v;
  bounded_v.value = 2.0;
  cache.Insert(exact, BoxAll(), {exact_v});
  cache.Insert(bounded, BoxAll(), {bounded_v}, ~uint64_t{0}, 0.5);
  std::vector<AggregateResult> got;
  double bound = -1;
  ASSERT_TRUE(cache.Lookup(exact, &got, &bound));
  EXPECT_DOUBLE_EQ(got[0].value, 1.0);
  EXPECT_DOUBLE_EQ(bound, 0);
  ASSERT_TRUE(cache.Lookup(bounded, &got, &bound));
  EXPECT_DOUBLE_EQ(got[0].value, 2.0);
  EXPECT_DOUBLE_EQ(bound, 0.5);
}

// ---------------------------------------------------------------------------
// Workload trace grammar: strict parsing, agg_bounded, per-op identity.

class WorkloadParseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
  }
  StarSchema schema_;
};

TEST_F(WorkloadParseTest, ParsesEveryOpAndSkipsComments) {
  TraceOp op;
  IOLAP_ASSERT_OK_AND_ASSIGN(bool got,
                             ParseTraceOp(schema_, "# comment", &op));
  EXPECT_FALSE(got);
  IOLAP_ASSERT_OK_AND_ASSIGN(got, ParseTraceOp(schema_, "   ", &op));
  EXPECT_FALSE(got);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      got, ParseTraceOp(schema_, "agg sum Location=MA # trailing", &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kAgg);
  EXPECT_EQ(op.func, AggregateFunc::kSum);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      got, ParseTraceOp(schema_, "agg_bounded avg 0.5 0.01 Location=East",
                        &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kAggBounded);
  EXPECT_EQ(op.func, AggregateFunc::kAverage);
  EXPECT_DOUBLE_EQ(op.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(op.delta, 0.01);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      got, ParseTraceOp(schema_, "rollup count Location 1", &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kRollUp);
  EXPECT_EQ(op.dim, 0);
  EXPECT_EQ(op.level, 1);

  IOLAP_ASSERT_OK_AND_ASSIGN(got, ParseTraceOp(schema_, "update 3 7.5", &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kUpdate);
  EXPECT_EQ(op.fact_id, 3);
  EXPECT_DOUBLE_EQ(op.measure, 7.5);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      got, ParseTraceOp(schema_, "insert 99 12 Location=MA", &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kInsert);

  IOLAP_ASSERT_OK_AND_ASSIGN(got, ParseTraceOp(schema_, "delete 99", &op));
  ASSERT_TRUE(got);
  IOLAP_ASSERT_OK_AND_ASSIGN(got, ParseTraceOp(schema_, "compact", &op));
  ASSERT_TRUE(got);
  EXPECT_EQ(op.type, TraceOpType::kCompact);
}

TEST_F(WorkloadParseTest, RejectsMalformedLines) {
  TraceOp op;
  // Unknown op, unknown func, bad dim, bad numbers, trailing junk — every
  // one is an explicit error, never a silent skip.
  EXPECT_EQ(ParseTraceOp(schema_, "frobnicate 1", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "agg median", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "agg sum Nowhere=MA", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "agg sum Location", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "agg_bounded sum x 0.05", &op)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "agg_bounded sum 0.5 1.5", &op)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "rollup sum Location 99", &op)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "update 3", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "delete 3 extra", &op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceOp(schema_, "compact now", &op).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace iolap
