// The hierarchical aggregate index: every index-tier answer must be
// indistinguishable (to 1e-9) from a fresh QueryEngine scan of the same
// EDB — for all five aggregate functions, across every mutation kind
// (update / insert / delete / compact), through both the direct AggIndex
// API and the QueryService tier that serves cache misses from it. With
// agg_index on, that tier is the per-node store for node-aligned regions
// and the cell tree for the rest; the routing tests pin which one answers.

#include "aggidx/agg_index.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/query_service.h"
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

/// Paper-example fixture. The service is built with the cache disabled so
/// every query is a miss and must be answered by the index tier (the scan
/// only runs if the index errors, which the probe-count assertions catch).
class AggIndexTest : public ::testing::Test {
 protected:
  AggIndexTest() : env_(MakeTempDir(), 256) {}

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

  ServeOptions IndexOnlyOptions() const {
    ServeOptions opts;
    opts.cache_slots = 0;  // no cache: every answer comes from the index
    opts.agg_index = true;
    return opts;
  }

  /// Node-aligned regions (the grand total and one constrained dimension)
  /// plus 2-dimension regions, so the service walk reaches both the
  /// per-node store and the cell tree.
  std::vector<QueryRegion> ProbeRegions() const {
    std::vector<QueryRegion> regions = NodeAlignedRegions();
    for (const QueryRegion& cross : CrossRegions()) regions.push_back(cross);
    return regions;
  }

  std::vector<QueryRegion> NodeAlignedRegions() const {
    std::vector<QueryRegion> regions = {QueryRegion::All()};
    for (NodeId node : schema_.dim(0).nodes_at_level(1)) {
      regions.push_back(QueryRegion::All().With(0, node));
    }
    for (NodeId node : schema_.dim(1).nodes_at_level(2)) {
      regions.push_back(QueryRegion::All().With(1, node));
    }
    return regions;
  }

  std::vector<QueryRegion> CrossRegions() const {
    std::vector<QueryRegion> regions;
    for (NodeId n0 : schema_.dim(0).nodes_at_level(2)) {
      for (NodeId n1 : schema_.dim(1).nodes_at_level(2)) {
        regions.push_back(QueryRegion::All().With(0, n0).With(1, n1));
      }
    }
    return regions;
  }

  /// Asserts every probe × function agrees with a fresh QueryEngine scan.
  void ExpectIndexMatchesEngine(QueryService& service) {
    QueryEngine engine(&env_, &schema_, &manager_->edb());
    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                   engine.Aggregate(region, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                   service.Aggregate(region, func));
        EXPECT_NEAR(got.value, expected.value, 1e-9);
        EXPECT_NEAR(got.sum, expected.sum, 1e-9);
        EXPECT_NEAR(got.count, expected.count, 1e-9);
      }
    }
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(AggIndexTest, DirectAggregateMatchesEngineAllFuncs) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 index.Aggregate(region, func));
      EXPECT_NEAR(got.value, expected.value, 1e-9);
      EXPECT_NEAR(got.min, expected.min, 1e-9);
      EXPECT_NEAR(got.max, expected.max, 1e-9);
    }
  }
  AggIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_GT(stats.cells, 0);
  EXPECT_GT(stats.pages, 0);
  EXPECT_GT(stats.probes, 0);
  EXPECT_GT(stats.nodes_read, 0);
}

TEST_F(AggIndexTest, DirectRollUpMatchesEngine) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (int dim = 0; dim < schema_.num_dims(); ++dim) {
    for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto expected, engine.RollUp(QueryRegion::All(), dim, level, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto got, index.RollUp(QueryRegion::All(), dim, level, func));
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_NEAR(got[i].value, expected[i].value, 1e-9);
        }
      }
    }
  }
}

TEST_F(AggIndexTest, RollUpRejectsBadArguments) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(index.RollUp(QueryRegion::All(), 7, 1, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.RollUp(QueryRegion::All(), 0, 9, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AggIndexTest, LazyBuildOnFirstQuery) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(index.stats().builds, 0);
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kSum).status());
  EXPECT_EQ(index.stats().builds, 1);
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kMax).status());
  EXPECT_EQ(index.stats().builds, 1);  // built once, reused
}

TEST_F(AggIndexTest, ServiceAnswersMissesFromIndex) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ASSERT_NE(service.agg_index(), nullptr);
  ExpectIndexMatchesEngine(service);
  // With the cache off, the cross regions were cell-tree probes.
  EXPECT_GT(service.agg_index()->stats().probes, 0);
}

TEST_F(AggIndexTest, UpdateKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);  // build, then patch incrementally

  FactUpdate u{facts_[0], facts_[0].measure + 900};
  IOLAP_ASSERT_OK(service.ApplyUpdates({u}));
  ExpectIndexMatchesEngine(service);

  // A second update, downward this time (min/max can only shrink via the
  // dirty-rebuild path).
  FactRecord cur = facts_[0];
  cur.measure += 900;
  IOLAP_ASSERT_OK(service.ApplyUpdates({FactUpdate{cur, 1.0}}));
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, InsertKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  // A precise insert lands in an existing or brand-new cell (overlay path);
  // an imprecise insert re-allocates the components it overlaps.
  FactRecord precise = facts_[0];
  precise.fact_id = 1000;
  precise.measure = 123.0;
  IOLAP_ASSERT_OK(service.InsertFacts({precise}));
  ExpectIndexMatchesEngine(service);

  FactRecord imprecise = facts_[0];
  imprecise.fact_id = 1001;
  imprecise.measure = 7.0;
  imprecise.node[0] = schema_.dim(0).nodes_at_level(2)[0];
  imprecise.level[0] =
      static_cast<uint8_t>(schema_.dim(0).level(imprecise.node[0]));
  IOLAP_ASSERT_OK(service.InsertFacts({imprecise}));
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, DeleteKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  // Min/max over a region covering the delete must come from the dirty
  // rebuild, never a stale extremum; sum/count are patched in place.
  ExpectIndexMatchesEngine(service);
  EXPECT_GT(service.agg_index()->stats().refreshes +
                service.agg_index()->stats().builds,
            1);
}

TEST_F(AggIndexTest, CompactKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  ExpectIndexMatchesEngine(service);
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GE(removed, 1);
  // Compaction is a logical no-op: the index stays valid as-is.
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, MutationsWithRollUpsStayConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  // The unconstrained rollup's groups are node-aligned (store); the
  // constrained one's are 2-dimensional (cell tree).
  const QueryRegion sedan =
      QueryRegion::All().With(1, schema_.dim(1).nodes_at_level(2)[0]);
  auto check_rollups = [&] {
    const int64_t probes = service.agg_index()->stats().probes;
    for (const QueryRegion& region : {QueryRegion::All(), sedan}) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(auto expected,
                                   engine.RollUp(region, 0, 2, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(auto got,
                                   service.RollUp(region, 0, 2, func));
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_NEAR(got[i].value, expected[i].value, 1e-9);
        }
      }
    }
    EXPECT_GT(service.agg_index()->stats().probes, probes);
  };
  check_rollups();
  IOLAP_ASSERT_OK(
      service.ApplyUpdates({FactUpdate{facts_[2], facts_[2].measure * 3}}));
  check_rollups();
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}));
  check_rollups();
}

TEST_F(AggIndexTest, IndexAndCacheTiersAgree) {
  ServeOptions opts;
  opts.agg_index = true;  // cache on AND index on: miss → index → cached
  QueryService service(manager_.get(), opts);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      bool hit = true;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult miss, service.Aggregate(region, func, nullptr, &hit));
      EXPECT_FALSE(hit);
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult warm, service.Aggregate(region, func, nullptr, &hit));
      EXPECT_TRUE(hit);
      EXPECT_NEAR(miss.value, expected.value, 1e-9);
      EXPECT_NEAR(warm.value, expected.value, 1e-9);
    }
  }
}

constexpr AggregateFunc kAdditiveFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage};

/// With agg_index on and synopsis off, the exact walk still answers
/// node-aligned regions (grand totals, one constrained dimension) from the
/// per-node store with bound 0, and 2-dimension regions from the cell tree;
/// rollups over an unconstrained region never probe the tree. Checked after
/// every step of an update / insert / delete / compact stream.
TEST_F(AggIndexTest, ExactWalkRoutesNodeAlignedProbesToStore) {
  const ServeOptions opts = IndexOnlyOptions();
  ASSERT_FALSE(opts.synopsis);
  QueryService service(manager_.get(), opts);
  ASSERT_NE(service.synopsis(), nullptr);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  bool rows_removed = false;

  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    for (const QueryRegion& region : NodeAlignedRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   engine.Aggregate(region, func));
        AnswerStats as;
        IOLAP_ASSERT_OK_AND_ASSIGN(
            AggregateResult got,
            service.Aggregate(region, func, AnswerSpec::Exact(), &as));
        EXPECT_NEAR(got.value, want.value, 1e-9);
        EXPECT_EQ(as.bound, 0);
        const bool extreme =
            func == AggregateFunc::kMin || func == AggregateFunc::kMax;
        if (!extreme || !rows_removed) {
          EXPECT_EQ(as.tier, AnswerTier::kSynopsis);
        } else {
          // Removals leave a slice's extremes a mere envelope; the cell
          // tree answers MIN/MAX over the slices they touched.
          EXPECT_TRUE(as.tier == AnswerTier::kSynopsis ||
                      as.tier == AnswerTier::kIndex);
        }
      }
    }
    for (const QueryRegion& region : CrossRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   engine.Aggregate(region, func));
        AnswerStats as;
        IOLAP_ASSERT_OK_AND_ASSIGN(
            AggregateResult got,
            service.Aggregate(region, func, AnswerSpec::Exact(), &as));
        EXPECT_NEAR(got.value, want.value, 1e-9);
        EXPECT_EQ(as.tier, AnswerTier::kIndex);
      }
    }
    // Rollups whose region constrains no dimension other than the rolled
    // up one: every group is node-aligned (or empty), so the store answers.
    const int64_t probes = service.agg_index()->stats().probes;
    const NodeId east = schema_.dim(0).nodes_at_level(2)[0];
    for (int dim = 0; dim < schema_.num_dims(); ++dim) {
      QueryRegion within = QueryRegion::All();
      if (dim == 0) within = within.With(0, east);
      for (const QueryRegion& region : {QueryRegion::All(), within}) {
        for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
          for (AggregateFunc func : kAdditiveFuncs) {
            IOLAP_ASSERT_OK_AND_ASSIGN(auto want,
                                       engine.RollUp(region, dim, level, func));
            IOLAP_ASSERT_OK_AND_ASSIGN(
                auto got, service.RollUp(region, dim, level, func));
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_NEAR(got[i].value, want[i].value, 1e-9);
            }
          }
        }
      }
    }
    EXPECT_EQ(service.agg_index()->stats().probes, probes);
    // A constrained rollup region makes every group 2-dimensional: the
    // tree answers all of them.
    const QueryRegion sedan =
        QueryRegion::All().With(1, schema_.dim(1).nodes_at_level(2)[0]);
    IOLAP_ASSERT_OK_AND_ASSIGN(
        auto want, engine.RollUp(sedan, 0, 1, AggregateFunc::kSum));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        auto got, service.RollUp(sedan, 0, 1, AggregateFunc::kSum));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got[i].value, want[i].value, 1e-9);
    }
    EXPECT_GT(service.agg_index()->stats().probes, probes);
  };

  check("built");
  IOLAP_ASSERT_OK(service.ApplyUpdates(
      {FactUpdate{facts_[0], facts_[0].measure + 900}}));
  rows_removed = true;
  check("update");
  FactRecord precise = facts_[2];
  precise.fact_id = 1000;
  precise.measure = 123.0;
  IOLAP_ASSERT_OK(service.InsertFacts({precise}));
  check("precise insert");
  FactRecord imprecise = facts_[2];
  imprecise.fact_id = 1001;
  imprecise.measure = 7.0;
  imprecise.node[0] = schema_.dim(0).nodes_at_level(2)[1];
  imprecise.level[0] =
      static_cast<uint8_t>(schema_.dim(0).level(imprecise.node[0]));
  IOLAP_ASSERT_OK(service.InsertFacts({imprecise}));
  check("imprecise insert");
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  check("delete");
  IOLAP_ASSERT_OK(service.Compact().status());
  check("compact");
}

/// With agg_index off, exact queries never consult the per-node store:
/// they scan, and stay memcmp-equal to an uncached rescan.
TEST_F(AggIndexTest, ExactQueriesSkipStoreWithIndexOff) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.synopsis = true;
  QueryService service(manager_.get(), opts);
  ASSERT_EQ(service.agg_index(), nullptr);
  ASSERT_NE(service.synopsis(), nullptr);
  const int64_t estimates = service.synopsis()->stats().estimates;
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      AnswerStats as;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult got,
          service.Aggregate(region, func, AnswerSpec::Exact(), &as));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                 service.UncachedAggregate(region, func));
      EXPECT_EQ(as.tier, AnswerTier::kScan);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(AggregateResult)), 0);
    }
  }
  IOLAP_ASSERT_OK(
      service.RollUp(QueryRegion::All(), 0, 2, AggregateFunc::kSum).status());
  EXPECT_EQ(service.synopsis()->stats().estimates, estimates);
}

/// Two spatially separated halves (same layout as the serve layer's
/// selective-invalidation fixture): mutations in one half must patch or
/// dirty only what they touched, and min/max staleness must be confined to
/// the touched boxes. The service tests probe 2-dimension regions (a half
/// crossed with a dimension-1 leaf), which the per-node store cannot answer
/// exactly, so the cell tree answers them.
class AggIndexSelectiveTest : public ::testing::Test {
 protected:
  AggIndexSelectiveTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    std::vector<Hierarchy> dims;
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                               HierarchyBuilder::Uniform("D0", {2, 4}));
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                               HierarchyBuilder::Uniform("D1", {2, 2}));
    dims.push_back(d0);
    dims.push_back(d1);
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, StarSchema::Create(std::move(dims)));
    half_a_ = schema_.dim(0).nodes_at_level(2)[0];
    half_b_ = schema_.dim(0).nodes_at_level(2)[1];
    const auto& d0_leaves = schema_.dim(0).nodes_at_level(1);
    const auto& d1_leaves = schema_.dim(1).nodes_at_level(1);
    cross_a_ = QueryRegion::All().With(0, half_a_).With(1, d1_leaves[0]);
    cross_b_ = QueryRegion::All().With(0, half_b_).With(1, d1_leaves[1]);
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

  /// An exact service answer that must come from the cell tree.
  Result<AggregateResult> TreeAnswer(QueryService& service,
                                     const QueryRegion& region,
                                     AggregateFunc func) {
    AnswerStats as;
    Result<AggregateResult> got =
        service.Aggregate(region, func, AnswerSpec::Exact(), &as);
    EXPECT_EQ(as.tier, AnswerTier::kIndex);
    return got;
  }

  StorageEnv env_;
  StarSchema schema_;
  NodeId half_a_ = 0;
  NodeId half_b_ = 0;
  QueryRegion cross_a_;  // half A × dimension-1 leaf 0: facts 1 and 3
  QueryRegion cross_b_;  // half B × dimension-1 leaf 1: facts 5 and 6
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(AggIndexSelectiveTest, DeleteInOneHalfOnlyDirtiesThatHalf) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_max,
      TreeAnswer(service, cross_a_, AggregateFunc::kMax));
  EXPECT_NEAR(a_max.value, 30, 1e-9);
  const int64_t builds_before = service.agg_index()->stats().builds +
                                service.agg_index()->stats().refreshes;

  // Delete fact 5 (in half B): its boxes lie entirely in B.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[4]}));
  EXPECT_GT(service.agg_index()->stats().dirty_boxes, 0);

  // A min/max query inside half A is disjoint from every dirty rect, so it
  // must be answered without a rebuild — and still be exact.
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after,
      TreeAnswer(service, cross_a_, AggregateFunc::kMax));
  EXPECT_NEAR(a_after.value, 30, 1e-9);
  EXPECT_EQ(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            builds_before);

  // Inside half B the dirty rect forces the lazy rebuild, and the fresh
  // answer matches the engine.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_after,
      TreeAnswer(service, cross_b_, AggregateFunc::kMax));
  IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult b_expected,
                             engine.Aggregate(cross_b_, AggregateFunc::kMax));
  EXPECT_NEAR(b_after.value, b_expected.value, 1e-9);
  EXPECT_GT(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            builds_before);
}

TEST_F(AggIndexSelectiveTest, SumQueriesNeverRebuildAfterDeletes) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(TreeAnswer(service, cross_a_, AggregateFunc::kSum).status());
  const int64_t rebuilds_before = service.agg_index()->stats().builds +
                                  service.agg_index()->stats().refreshes;

  // Fact 1 lies in cross_a_; deleting it also re-allocates fact 3 there.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}));
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : {cross_a_, cross_b_}) {
    for (AggregateFunc func : {AggregateFunc::kSum, AggregateFunc::kCount,
                               AggregateFunc::kAverage}) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 TreeAnswer(service, region, func));
      EXPECT_NEAR(got.value, expected.value, 1e-9);
    }
  }
  // Additive partials are patched in place — deletes alone never force the
  // sum/count/average path to rebuild.
  EXPECT_EQ(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            rebuilds_before);
}

TEST_F(AggIndexSelectiveTest, InvalidateForcesRebuildOnNextQuery) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  EXPECT_EQ(index.stats().builds, 1);
  index.Invalidate();
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kSum).status());
  EXPECT_EQ(index.stats().builds, 2);
}

TEST_F(AggIndexSelectiveTest, EmptyEdbAnswersEmptyAggregates) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(service.DeleteFacts(facts_));
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : {QueryRegion::All(), cross_a_, cross_b_}) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 service.Aggregate(region, func));
      EXPECT_NEAR(got.value, expected.value, 1e-9);
      // The store may answer an empty EDB exactly everywhere, so ask the
      // cell tree directly as well.
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult tree,
                                 service.agg_index()->Aggregate(region, func));
      EXPECT_NEAR(tree.value, expected.value, 1e-9);
      EXPECT_NEAR(tree.count, expected.count, 1e-9);
    }
  }
}

}  // namespace
}  // namespace iolap
