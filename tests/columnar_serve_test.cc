// Row-major and columnar EDB readers must be interchangeable: every query
// surface (QueryEngine, the serve layer's partitioned scans, AggIndex
// builds) answers the same on either format, and the serve layer's mirror
// lifecycle — built at startup, dropped by any mutation, rebuilt by
// Compact / RefreshColumnar — never serves a stale or wrong answer.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/columnar.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/query_service.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

constexpr AggregateFunc kAllFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
    AggregateFunc::kMin, AggregateFunc::kMax};

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

// ---------------------------------------------------------------------------
// QueryEngine equivalence on seeded random EDBs (tombstones included).

class ColumnarEngineEquivalenceTest : public ::testing::Test {
 protected:
  ColumnarEngineEquivalenceTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
  }

  TypedFile<EdbRecord> MakeEdb(int64_t rows, uint64_t seed) {
    auto created = TypedFile<EdbRecord>::Create(
        env_.disk(), "edb_seed" + std::to_string(seed));
    EXPECT_TRUE(created.ok());
    TypedFile<EdbRecord> edb = std::move(created).value();
    auto appender = edb.MakeAppender(env_.pool());
    Rng rng(seed);
    for (int64_t i = 0; i < rows; ++i) {
      EdbRecord rec{};
      if (rng.Bernoulli(1.0 / 7)) {
        rec.fact_id = -1;
        rec.weight = 0;
      } else {
        rec.fact_id = static_cast<FactId>(rng.Uniform(64));  // repeats ids
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
};

TEST_F(ColumnarEngineEquivalenceTest, AnswersMatchRowPathAcrossSeeds) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    TypedFile<EdbRecord> edb = MakeEdb(3000, seed);
    ColumnarWriteOptions opts;
    opts.rows_per_extent = 512;  // several extents
    IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                               WriteColumnarEdb(env_, schema_, edb, opts));
    QueryEngine row_engine(&env_, &schema_, &edb);
    QueryEngine col_engine(&env_, &schema_, &edb);
    col_engine.set_columnar(&col);

    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   row_engine.Aggregate(region, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                   col_engine.Aggregate(region, func));
        // Same rows, same order, same arithmetic: not just 1e-9-close but
        // byte-identical.
        EXPECT_EQ(want.value, got.value);
        EXPECT_EQ(want.sum, got.sum);
        EXPECT_EQ(want.count, got.count);
      }
      for (int dim = 0; dim < schema_.num_dims(); ++dim) {
        for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
          IOLAP_ASSERT_OK_AND_ASSIGN(
              auto want,
              row_engine.RollUp(region, dim, level, AggregateFunc::kSum));
          IOLAP_ASSERT_OK_AND_ASSIGN(
              auto got,
              col_engine.RollUp(region, dim, level, AggregateFunc::kSum));
          ASSERT_EQ(want.size(), got.size());
          for (size_t g = 0; g < want.size(); ++g) {
            EXPECT_EQ(want[g].value, got[g].value);
          }
        }
      }
      // Provenance: identical record vectors, byte for byte.
      IOLAP_ASSERT_OK_AND_ASSIGN(auto want_rows, row_engine.FactsIn(region));
      IOLAP_ASSERT_OK_AND_ASSIGN(auto got_rows, col_engine.FactsIn(region));
      ASSERT_EQ(want_rows.size(), got_rows.size());
      if (!want_rows.empty()) {
        EXPECT_EQ(std::memcmp(want_rows.data(), got_rows.data(),
                              want_rows.size() * sizeof(EdbRecord)),
                  0);
      }
    }
    for (const FactId id : {FactId{0}, FactId{17}, FactId{63}}) {
      IOLAP_ASSERT_OK_AND_ASSIGN(auto want, row_engine.CompletionsOf(id));
      IOLAP_ASSERT_OK_AND_ASSIGN(auto got, col_engine.CompletionsOf(id));
      ASSERT_EQ(want.size(), got.size());
      if (!want.empty()) {
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(EdbRecord)),
                  0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serve-layer mirror lifecycle over the paper-example maintenance stack.

class ColumnarServeTest : public ::testing::Test {
 protected:
  ColumnarServeTest() : env_(MakeTempDir(), 256) {}

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

  /// Node-aligned regions plus 2-dimension regions; with agg_index on the
  /// service answers the former from the per-node store and only the
  /// latter from the cell tree.
  std::vector<QueryRegion> ProbeRegions() const {
    std::vector<QueryRegion> regions = {QueryRegion::All()};
    for (NodeId node : schema_.dim(0).nodes_at_level(1)) {
      regions.push_back(QueryRegion::All().With(0, node));
    }
    for (NodeId node : schema_.dim(1).nodes_at_level(2)) {
      regions.push_back(QueryRegion::All().With(1, node));
    }
    for (NodeId n0 : schema_.dim(0).nodes_at_level(2)) {
      for (NodeId n1 : schema_.dim(1).nodes_at_level(2)) {
        regions.push_back(QueryRegion::All().With(0, n0).With(1, n1));
      }
    }
    return regions;
  }

  /// Every probe region × function, columnar service vs a fresh row-path
  /// engine scan of the current EDB. Exact equality (same arithmetic).
  void ExpectServiceMatchesEngine(QueryService& service) {
    QueryEngine engine(&env_, &schema_, &manager_->edb());
    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   engine.Aggregate(region, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                   service.UncachedAggregate(region, func));
        EXPECT_EQ(want.value, got.value);
      }
    }
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(ColumnarServeTest, ColumnarServiceMatchesRowService) {
  ServeOptions row_opts;
  row_opts.cache_slots = 0;
  QueryService row_service(manager_.get(), row_opts);

  ServeOptions col_opts;
  col_opts.cache_slots = 0;
  col_opts.edb_format = EdbFormat::kColumnar;
  col_opts.columnar_rows_per_extent = 16;  // several extents even here
  QueryService col_service(manager_.get(), col_opts);
  EXPECT_FALSE(row_service.columnar_active());
  EXPECT_TRUE(col_service.columnar_active());

  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                 row_service.UncachedAggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 col_service.UncachedAggregate(region, func));
      EXPECT_EQ(want.value, got.value);
      EXPECT_EQ(want.sum, got.sum);
      EXPECT_EQ(want.count, got.count);
      EXPECT_EQ(want.min, got.min);
      EXPECT_EQ(want.max, got.max);
    }
    for (int level = 1; level <= schema_.dim(0).num_levels(); ++level) {
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto want,
          row_service.UncachedRollUp(region, 0, level, AggregateFunc::kSum));
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto got,
          col_service.UncachedRollUp(region, 0, level, AggregateFunc::kSum));
      ASSERT_EQ(want.size(), got.size());
      for (size_t g = 0; g < want.size(); ++g) {
        EXPECT_EQ(want[g].value, got[g].value);
      }
    }
  }
}

TEST_F(ColumnarServeTest, ShardedThreadedColumnarMatchesSerial) {
  ServeOptions serial;
  serial.cache_slots = 0;
  QueryService row_service(manager_.get(), serial);

  ServeOptions sharded;
  sharded.cache_slots = 0;
  sharded.edb_format = EdbFormat::kColumnar;
  sharded.columnar_rows_per_extent = 16;
  sharded.num_shards = 4;
  sharded.num_threads = 2;
  QueryService col_service(manager_.get(), sharded);

  for (const QueryRegion& region : ProbeRegions()) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult want,
        row_service.UncachedAggregate(region, AggregateFunc::kSum));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult got,
        col_service.UncachedAggregate(region, AggregateFunc::kSum));
    EXPECT_EQ(want.value, got.value);
  }
}

TEST_F(ColumnarServeTest, MirrorDroppedByMutationRebuiltByCompactAndRefresh) {
  ServeOptions opts;
  opts.edb_format = EdbFormat::kColumnar;
  opts.columnar_rows_per_extent = 16;
  QueryService service(manager_.get(), opts);
  ASSERT_TRUE(service.columnar_active());
  ExpectServiceMatchesEngine(service);

  // Any mutation drops the mirror; answers fall back to the row path and
  // reflect the mutation immediately.
  IOLAP_ASSERT_OK(
      service.ApplyUpdates({FactUpdate{facts_[0], facts_[0].measure + 5}}));
  EXPECT_FALSE(service.columnar_active());
  ExpectServiceMatchesEngine(service);

  // RefreshColumnar restores columnar scans over the mutated EDB.
  IOLAP_ASSERT_OK(service.RefreshColumnar());
  EXPECT_TRUE(service.columnar_active());
  ExpectServiceMatchesEngine(service);

  // A delete drops it again; Compact squeezes out the tombstones and
  // rebuilds the mirror as part of the same locked section.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  EXPECT_FALSE(service.columnar_active());
  ExpectServiceMatchesEngine(service);
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GT(removed, 0);
  EXPECT_TRUE(service.columnar_active());
  ExpectServiceMatchesEngine(service);

  // Provenance answers also match the row-path engine while the mirror is
  // active.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto want, engine.CompletionsOf(facts_[2].fact_id));
  IOLAP_ASSERT_OK_AND_ASSIGN(auto got, service.CompletionsOf(facts_[2].fact_id));
  ASSERT_EQ(want.size(), got.size());
  if (!want.empty()) {
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(EdbRecord)),
              0);
  }
}

TEST_F(ColumnarServeTest, AggIndexBuildsFromColumnarMirror) {
  ServeOptions opts;
  opts.edb_format = EdbFormat::kColumnar;
  opts.columnar_rows_per_extent = 16;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  ASSERT_TRUE(service.columnar_active());

  ASSERT_NE(service.agg_index(), nullptr);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 service.Aggregate(region, func));
      EXPECT_NEAR(want.value, got.value, 1e-9);
      // The tree built from the mirror answers every region directly too.
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult tree,
                                 service.agg_index()->Aggregate(region, func));
      EXPECT_NEAR(want.value, tree.value, 1e-9);
      EXPECT_NEAR(want.sum, tree.sum, 1e-9);
      EXPECT_NEAR(want.count, tree.count, 1e-9);
    }
  }
  EXPECT_EQ(service.agg_index()->stats().builds, 1);
  EXPECT_TRUE(service.columnar_active());
  // The 2-dimension regions reached the tree through the service.
  const int64_t probes = service.agg_index()->stats().probes;
  const QueryRegion cross =
      QueryRegion::All()
          .With(0, schema_.dim(0).nodes_at_level(2)[0])
          .With(1, schema_.dim(1).nodes_at_level(2)[0]);
  AnswerStats as;
  IOLAP_ASSERT_OK(service
                      .Aggregate(cross, AggregateFunc::kSum,
                                 AnswerSpec::Exact(), &as)
                      .status());
  EXPECT_EQ(as.tier, AnswerTier::kIndex);
  EXPECT_GT(service.agg_index()->stats().probes, probes);
}

}  // namespace
}  // namespace iolap
