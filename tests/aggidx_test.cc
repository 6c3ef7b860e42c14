// The hierarchical aggregate index: every index-tier answer must be
// indistinguishable (to 1e-9) from a fresh QueryEngine scan of the same
// EDB — for all five aggregate functions, across every mutation kind
// (update / insert / delete / compact), through both the direct AggIndex
// API and the QueryService tier that serves cache misses from it. With
// agg_index on, that tier is the per-node store for node-aligned regions
// and the cell tree for the rest; the routing tests pin which one answers.

#include "aggidx/agg_index.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "obs/metrics.h"
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

/// A point aggregate from the cell tree: its one-group rollup.
Result<AggregateResult> TreeAggregate(AggIndex& index,
                                      const QueryRegion& region,
                                      AggregateFunc func) {
  IOLAP_ASSIGN_OR_RETURN(std::vector<AggregateResult> groups,
                         index.RollUp(region, /*dim=*/-1, /*level=*/0, func));
  return groups[0];
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
                                 TreeAggregate(index, region, func));
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
  IOLAP_ASSERT_OK(index.Build());
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

TEST_F(AggIndexTest, UnbuiltIndexRefusesUntilRebuilt) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  // Queries never build: an unbuilt index refuses every probe.
  for (AggregateFunc func : kAllFuncs) {
    EXPECT_EQ(TreeAggregate(index, QueryRegion::All(), func).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(index.RollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(index.stats().builds, 0);
  IOLAP_ASSERT_OK(index.RebuildIfStale());
  EXPECT_EQ(index.stats().builds, 1);
  IOLAP_ASSERT_OK(
      TreeAggregate(index, QueryRegion::All(), AggregateFunc::kMax).status());
  IOLAP_ASSERT_OK(index.RebuildIfStale());  // fresh: a no-op
  EXPECT_EQ(index.stats().builds, 1);
  EXPECT_EQ(index.stats().refreshes, 0);
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

  // A second update, downward this time (min/max cannot shrink in place:
  // the marked cells' MIN/MAX fall through to the scan).
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
  // Min/max over a region covering the delete falls through to the scan,
  // never a stale extremum; sum/count are patched in place. Neither the
  // commit nor any query rebuilds.
  ExpectIndexMatchesEngine(service);
  EXPECT_EQ(service.agg_index()->stats().builds, 1);
  EXPECT_EQ(service.agg_index()->stats().refreshes, 0);
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
      AnswerStats as;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult miss, service.Aggregate(region, func,
                                                  AnswerSpec::Exact(), &as));
      EXPECT_FALSE(as.cache_hit);
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult warm, service.Aggregate(region, func,
                                                  AnswerSpec::Exact(), &as));
      EXPECT_TRUE(as.cache_hit);
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
          // Removals leave a slice's extremes a mere envelope and mark the
          // tree cells that lost rows; MIN/MAX over those falls through to
          // the tree or on to the scan.
          EXPECT_NE(as.tier, AnswerTier::kCache);
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
        const bool extreme =
            func == AggregateFunc::kMin || func == AggregateFunc::kMax;
        if (!extreme || !rows_removed) {
          EXPECT_EQ(as.tier, AnswerTier::kIndex);
        } else {
          EXPECT_TRUE(as.tier == AnswerTier::kIndex ||
                      as.tier == AnswerTier::kScan);
        }
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
/// mark only what they touched, and min/max staleness must be confined to
/// the cells that lost rows. The service tests probe 2-dimension regions (a
/// half crossed with a dimension-1 leaf), which the per-node store cannot
/// answer exactly, so the cell tree answers them.
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

  // Delete fact 5 (in half B): the cells that lose rows lie in B.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[4]}));

  // A min/max query inside half A covers no marked cell, so the tree
  // answers it — exactly.
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after,
      TreeAnswer(service, cross_a_, AggregateFunc::kMax));
  EXPECT_NEAR(a_after.value, 30, 1e-9);

  // Inside half B the marked cells send MIN/MAX to the scan, which
  // matches the engine.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_after,
      service.Aggregate(cross_b_, AggregateFunc::kMax, AnswerSpec::Exact(),
                        &as));
  EXPECT_EQ(as.tier, AnswerTier::kScan);
  IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult b_expected,
                             engine.Aggregate(cross_b_, AggregateFunc::kMax));
  EXPECT_NEAR(b_after.value, b_expected.value, 1e-9);
  // Neither the commit nor either query rebuilt the tree.
  EXPECT_EQ(service.agg_index()->stats().builds +
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

TEST_F(AggIndexSelectiveTest, InvalidatedIndexRefusesUntilRebuilt) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  EXPECT_EQ(index.stats().builds, 1);
  index.Invalidate();
  for (AggregateFunc func : kAllFuncs) {
    EXPECT_EQ(TreeAggregate(index, cross_a_, func).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(index.stats().builds + index.stats().refreshes, 1);
  IOLAP_ASSERT_OK(index.RebuildIfStale());
  EXPECT_EQ(index.stats().refreshes, 1);  // a rebuild of a built index
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (AggregateFunc func : kAllFuncs) {
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                               engine.Aggregate(cross_a_, func));
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                               TreeAggregate(index, cross_a_, func));
    EXPECT_NEAR(got.value, expected.value, 1e-9);
  }
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
      // cell tree directly as well. Every cell lost its rows, so the tree
      // refuses MIN/MAX until a rebuild.
      Result<AggregateResult> tree =
          TreeAggregate(*service.agg_index(), region, func);
      if (func == AggregateFunc::kMin || func == AggregateFunc::kMax) {
        EXPECT_EQ(tree.status().code(), StatusCode::kUnavailable);
        continue;
      }
      IOLAP_ASSERT_OK(tree.status());
      EXPECT_NEAR(tree->value, expected.value, 1e-9);
      EXPECT_NEAR(tree->count, expected.count, 1e-9);
    }
  }
  // A rebuild over the empty EDB answers all five from an empty tree.
  IOLAP_ASSERT_OK(service.agg_index()->Build());
  for (const QueryRegion& region : {QueryRegion::All(), cross_a_, cross_b_}) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult tree,
          TreeAggregate(*service.agg_index(), region, func));
      EXPECT_NEAR(tree.value, expected.value, 1e-9);
      EXPECT_NEAR(tree.count, expected.count, 1e-9);
    }
  }
}

/// The removal-marking rule, in 1-shard and 2-shard services (split at
/// the halves). Leaves: D0 has 8 (halves A = 0..3, B = 4..7), D1 has 4
/// under two parents. One component joins an imprecise column at D0 leaf 0
/// with an imprecise row across half A; its bounding box also holds a
/// precise singleton cell (D0 leaf 2, D1 leaf 1) that no fact of the
/// component overlaps, so a batch re-allocating the component touches that
/// cell's box but never removes its row. Every probe region constrains two
/// dimensions within its shard and shares each constrained slice with rows
/// outside it, so the per-node store cannot answer it exactly and the cell
/// tree does.
class AggIndexMarkTest : public ::testing::TestWithParam<int> {
 protected:
  AggIndexMarkTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    std::vector<Hierarchy> dims;
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                               HierarchyBuilder::Uniform("D0", {2, 4}));
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                               HierarchyBuilder::Uniform("D1", {2, 2}));
    dims.push_back(d0);
    dims.push_back(d1);
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, StarSchema::Create(std::move(dims)));
    const auto& l0 = schema_.dim(0).nodes_at_level(1);
    const auto& l1 = schema_.dim(1).nodes_at_level(1);
    const NodeId half_a = schema_.dim(0).nodes_at_level(2)[0];
    const NodeId p0 = schema_.dim(1).nodes_at_level(2)[0];  // leaves 0, 1
    const NodeId p1 = schema_.dim(1).nodes_at_level(2)[1];  // leaves 2, 3
    new_cell_ = {l0[5], l1[3]};
    facts_ = {
        MakeFactAt(schema_, 1, 10, l0[0], l1[0]),
        MakeFactAt(schema_, 2, 20, l0[0], l1[1]),
        MakeFactAt(schema_, 3, 30, l0[0], p0),      // imprecise column
        MakeFactAt(schema_, 4, 40, half_a, l1[0]),  // imprecise row
        MakeFactAt(schema_, 5, 50, l0[2], l1[1]),   // singleton in the bbox
        MakeFactAt(schema_, 6, 60, l0[5], l1[2]),   // singletons in half B
        MakeFactAt(schema_, 7, 70, l0[5], l1[0]),
        MakeFactAt(schema_, 8, 80, l0[4], l1[2]),
        MakeFactAt(schema_, 9, 90, l0[2], l1[3]),   // beside the bbox
    };
    singleton_ = QueryRegion::All().With(0, l0[2]).With(1, l1[1]);
    column_ = QueryRegion::All().With(0, l0[0]).With(1, p0);
    leaf5_ = QueryRegion::All().With(0, l0[5]).With(1, p1);
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  ServeOptions Options() const {
    ServeOptions opts;
    opts.cache_slots = 0;
    opts.agg_index = true;
    opts.num_shards = GetParam();
    return opts;
  }

  /// A served exact answer from `want_tier`, checked against an uncached
  /// rescan.
  AggregateResult Served(QueryService& service, const QueryRegion& region,
                         AggregateFunc func, AnswerTier want_tier) {
    AnswerStats as;
    Result<AggregateResult> got =
        service.Aggregate(region, func, AnswerSpec::Exact(), &as);
    Result<AggregateResult> want = service.UncachedAggregate(region, func);
    EXPECT_TRUE(got.ok() && want.ok());
    if (!got.ok() || !want.ok()) return AggregateResult{};
    EXPECT_EQ(as.tier, want_tier) << "func " << static_cast<int>(func);
    EXPECT_NEAR(got->value, want->value, 1e-9);
    return *got;
  }

  int64_t Rebuilds(QueryService& service) {
    const AggIndex::Stats s = service.agg_index()->stats();
    return s.builds + s.refreshes;
  }

  StorageEnv env_;
  StarSchema schema_;
  std::array<NodeId, 2> new_cell_ = {};  // a cell no fact occupies
  QueryRegion singleton_;  // the singleton cell inside the component's box
  QueryRegion column_;     // D0 leaf 0 × D1 parent 0: cells that lose rows
  QueryRegion leaf5_;      // D0 leaf 5 × D1 parent 1: fact 6, new_cell_
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_P(AggIndexMarkTest, MinMaxInsideTouchedBoxesStaysOnTreeUnlessRowLost) {
  QueryService service(manager_.get(), Options());
  ASSERT_EQ(service.num_shards(), GetParam());
  const int64_t rebuilds = Rebuilds(service);

  // Deleting fact 1 re-allocates its whole component.
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}, &stats));
  const Rect singleton = RegionToRect(schema_, singleton_);
  bool touched = false;
  for (const Rect& box : stats.touched_boxes) {
    touched |= RectsIntersect(box, singleton, schema_.num_dims());
  }
  ASSERT_TRUE(touched);

  // The singleton lost no row: the tree still answers its extremes.
  for (AggregateFunc func : {AggregateFunc::kMin, AggregateFunc::kMax}) {
    EXPECT_NEAR(Served(service, singleton_, func, AnswerTier::kIndex).value,
                50, 1e-9);
  }
  // The column covers cells that lost rows: MIN/MAX fall through to the
  // scan, while SUM stays on the tree.
  for (AggregateFunc func : {AggregateFunc::kMin, AggregateFunc::kMax}) {
    Served(service, column_, func, AnswerTier::kScan);
  }
  Served(service, column_, AggregateFunc::kSum, AnswerTier::kIndex);
  // Neither the commit nor any query rebuilt the tree.
  EXPECT_EQ(Rebuilds(service), rebuilds);
}

TEST_P(AggIndexMarkTest, OverlayCellThatLosesARowNeverServesStaleMinMax) {
  QueryService service(manager_.get(), Options());
  ASSERT_EQ(service.num_shards(), GetParam());
  // Two precise facts in a cell first occupied after the build: it lives
  // in the overlay, and the tree answers over it.
  const FactRecord high =
      MakeFactAt(schema_, 7, 100, new_cell_[0], new_cell_[1]);
  const FactRecord low = MakeFactAt(schema_, 8, 5, new_cell_[0], new_cell_[1]);
  IOLAP_ASSERT_OK(service.InsertFacts({high, low}));
  EXPECT_EQ(service.agg_index()->stats().overlay_cells, 1);
  EXPECT_NEAR(
      Served(service, leaf5_, AggregateFunc::kMin, AnswerTier::kIndex).value,
      5, 1e-9);

  // The cell loses a row. Its extremes must not read as empty, which would
  // answer MIN = 60 from fact 6 alone: the marked cell sends MIN/MAX to
  // the scan, and SUM stays on the tree.
  IOLAP_ASSERT_OK(service.DeleteFacts({high}));
  EXPECT_NEAR(
      Served(service, leaf5_, AggregateFunc::kMin, AnswerTier::kScan).value,
      5, 1e-9);
  Served(service, leaf5_, AggregateFunc::kMax, AnswerTier::kScan);
  Served(service, leaf5_, AggregateFunc::kSum, AnswerTier::kIndex);
}

TEST_P(AggIndexMarkTest, TierCountersCountEveryAggregateAndRollUp) {
  MetricsRegistry registry;
  SetGlobalMetrics(&registry);
  struct Uninstall {
    ~Uninstall() { SetGlobalMetrics(nullptr); }
  } uninstall;
  ServeOptions opts = Options();
  opts.cache_slots = 4096;
  opts.synopsis = true;
  QueryService service(manager_.get(), opts);
  const auto tier_total = [&registry] {
    int64_t total = 0;
    for (int t = 0; t < 4; ++t) {
      total += registry
                   .counter(std::string("serve.answer_tier.") +
                            AnswerTierName(static_cast<AnswerTier>(t)))
                   ->value();
    }
    return total;
  };

  int64_t calls = 0;
  const auto traffic = [&] {
    for (const QueryRegion& region :
         {QueryRegion::All(), singleton_, column_, leaf5_}) {
      for (AggregateFunc func : kAllFuncs) {
        for (int repeat = 0; repeat < 2; ++repeat) {  // miss, then hit
          IOLAP_ASSERT_OK(service.Aggregate(region, func).status());
          IOLAP_ASSERT_OK(
              service.Aggregate(region, func, AnswerSpec::Bounded(1e9))
                  .status());
          IOLAP_ASSERT_OK(service.RollUp(region, 1, 1, func).status());
          calls += 3;
        }
      }
    }
  };
  traffic();
  // One rollup alone moves the total by exactly one.
  const int64_t before = tier_total();
  IOLAP_ASSERT_OK(
      service.RollUp(column_, 0, 2, AggregateFunc::kCount).status());
  ++calls;
  EXPECT_EQ(tier_total(), before + 1);
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}));
  traffic();
  EXPECT_EQ(tier_total(), calls);
  for (int t = 0; t < 4; ++t) {
    const std::string name = std::string("serve.answer_tier.") +
                             AnswerTierName(static_cast<AnswerTier>(t));
    EXPECT_GT(registry.counter(name)->value(), 0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, AggIndexMarkTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace iolap
