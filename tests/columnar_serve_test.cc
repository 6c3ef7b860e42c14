// Row-major and columnar EDB scans must be interchangeable: the group-by
// engine answers the same on either format, and QueryService's scan-format
// rule — build the columnar mirror once, only for a read-only service whose
// EDB outgrows the buffer pool — never changes an answer, and never fires
// for a service that fits its pool or mutates its EDB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/columnar.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "exec/thread_pool.h"
#include "serve/groupby.h"
#include "serve/query_service.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

constexpr AggregateFunc kAllFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
    AggregateFunc::kMin, AggregateFunc::kMax};

/// Same rows, same order, same arithmetic on either format: every field of
/// the accumulator must agree exactly, not just within an epsilon.
void ExpectSameResult(const AggregateResult& want, const AggregateResult& got) {
  EXPECT_EQ(want.value, got.value);
  EXPECT_EQ(want.sum, got.sum);
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
}

void ExpectSameResults(const std::vector<AggregateResult>& want,
                       const std::vector<AggregateResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) ExpectSameResult(want[i], got[i]);
}

void ExpectNearOracle(double want, double got) {
  EXPECT_NEAR(want, got, 1e-9 * std::max(1.0, std::abs(want)));
}

template <typename Record>
Result<TypedFile<Record>> CopyFile(const TypedFile<Record>& from,
                                   StorageEnv& from_env, StorageEnv& to_env,
                                   const std::string& name) {
  IOLAP_ASSIGN_OR_RETURN(auto to,
                         TypedFile<Record>::Create(to_env.disk(), name));
  auto appender = to.MakeAppender(to_env.pool());
  auto cursor = from.Scan(from_env.pool());
  Record rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    IOLAP_RETURN_IF_ERROR(appender.Append(rec));
  }
  appender.Close();
  return to;
}

// ---------------------------------------------------------------------------
// GroupByEngine equivalence on seeded random EDBs (tombstones included):
// a many-extent mirror scanned through small chunks and split row ranges
// must equal the row path byte for byte, and the serial QueryEngine oracle
// within 1e-9.

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
  ThreadPool pool(2);
  GroupByOptions gopts;
  gopts.chunk_rows = 1;  // snaps to one EDB page per chunk: many chunks
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const int64_t rows = 3000;
    TypedFile<EdbRecord> edb = MakeEdb(rows, seed);
    ColumnarWriteOptions opts;
    opts.rows_per_extent = 16;  // ~190 extents, several per chunk
    IOLAP_ASSERT_OK_AND_ASSIGN(ColumnarEdb col,
                               WriteColumnarEdb(env_, schema_, edb, opts));
    ASSERT_GT(col.num_extents(), 100);
    GroupByEngine engine(&env_, &schema_, &edb, &pool, gopts);
    QueryEngine oracle(&env_, &schema_, &edb);
    // The columnar side scans the same rows through ranges that split
    // chunks and extents mid-way; the grid keeps answers byte-stable.
    const std::vector<RowRange> whole = {{0, rows}};
    const std::vector<RowRange> split = {{0, 1001}, {1001, 1717},
                                         {1717, rows}};

    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   oracle.Aggregate(region, func));
        // A point aggregate is the one-group rollup.
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto row, engine.RollUp(whole, region, -1, 0, func, nullptr,
                                    nullptr));
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto got, engine.RollUp(split, region, -1, 0, func, nullptr, &col));
        ExpectSameResults(row, got);
        ASSERT_EQ(got.size(), 1u);
        ExpectNearOracle(want.value, got[0].value);
      }
      for (int dim = 0; dim < schema_.num_dims(); ++dim) {
        for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
          IOLAP_ASSERT_OK_AND_ASSIGN(
              auto want, oracle.RollUp(region, dim, level, AggregateFunc::kSum));
          IOLAP_ASSERT_OK_AND_ASSIGN(
              auto row, engine.RollUp(whole, region, dim, level,
                                      AggregateFunc::kSum, nullptr, nullptr));
          IOLAP_ASSERT_OK_AND_ASSIGN(
              auto got, engine.RollUp(split, region, dim, level,
                                      AggregateFunc::kSum, nullptr, &col));
          ExpectSameResults(row, got);
          ASSERT_EQ(want.size(), got.size());
          for (size_t g = 0; g < want.size(); ++g) {
            ExpectNearOracle(want[g].value, got[g].value);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QueryService's scan-format rule. One generated automotive-schema EDB,
// allocated in a pool that holds it, and a byte-identical copy in a pool it
// outgrows.

class ColumnarServeTest : public ::testing::Test {
 protected:
  static constexpr int64_t kSmallPool = 16;
  static constexpr int64_t kBigPool = 2048;

  ColumnarServeTest()
      : big_env_(MakeTempDir(), kBigPool),
        small_env_(MakeTempDir(), kSmallPool) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakeAutomotiveSchema());
    DatasetSpec spec;
    spec.num_facts = 1500;
    spec.seed = 19;
    IOLAP_ASSERT_OK_AND_ASSIGN(facts_, GenerateFacts(big_env_, schema_, spec));
    AllocationOptions options;
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AllocationResult result,
        Allocator::Run(big_env_, schema_, &facts_, options));
    big_edb_ = std::move(result.edb);
    IOLAP_ASSERT_OK_AND_ASSIGN(
        small_edb_, CopyFile(big_edb_, big_env_, small_env_, "edb_copy"));
    // The rule's two sides, made explicit.
    ASSERT_GT(small_edb_.size_in_pages(), kSmallPool);
    ASSERT_LE(big_edb_.size_in_pages(), kBigPool);
  }

  /// Point regions over single and crossed dimensions, for every function.
  std::vector<QueryRegion> ProbeRegions() const {
    std::vector<QueryRegion> regions = {QueryRegion::All()};
    for (int d = 0; d < schema_.num_dims(); ++d) {
      const std::vector<NodeId>& nodes = schema_.dim(d).nodes_at_level(1);
      for (size_t i = 0; i < nodes.size() && i < 3; ++i) {
        regions.push_back(QueryRegion::All().With(d, nodes[i]));
      }
    }
    regions.push_back(QueryRegion::All()
                          .With(0, schema_.dim(0).nodes_at_level(1)[0])
                          .With(3, schema_.dim(3).nodes_at_level(2)[0]));
    return regions;
  }

  /// Every probe region × function, then a rollup per dimension and level
  /// over the whole cube and over one slice, flattened in a fixed order.
  Result<std::vector<AggregateResult>> RunProbes(QueryService& service) {
    std::vector<AggregateResult> out;
    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSIGN_OR_RETURN(AggregateResult r,
                               service.UncachedAggregate(region, func));
        out.push_back(r);
      }
    }
    const QueryRegion slice =
        QueryRegion::All().With(1, schema_.dim(1).nodes_at_level(1)[0]);
    for (const QueryRegion& region : {QueryRegion::All(), slice}) {
      for (int dim = 0; dim < schema_.num_dims(); ++dim) {
        for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
          IOLAP_ASSIGN_OR_RETURN(
              std::vector<AggregateResult> groups,
              service.UncachedRollUp(region, dim, level,
                                     AggregateFunc::kAverage));
          out.insert(out.end(), groups.begin(), groups.end());
        }
      }
    }
    return out;
  }

  StorageEnv big_env_;
  StorageEnv small_env_;
  StarSchema schema_;
  TypedFile<FactRecord> facts_;
  TypedFile<EdbRecord> big_edb_;
  TypedFile<EdbRecord> small_edb_;
};

// A read-only service whose EDB outgrows its pool scans the mirror, and
// answers exactly as a read-only service whose pool holds the EDB.
TEST_F(ColumnarServeTest, ColumnarServiceMatchesRowService) {
  ServeOptions row_opts;
  row_opts.cache_slots = 0;
  QueryService row_service(&big_env_, &schema_, &big_edb_, row_opts);
  ASSERT_FALSE(row_service.columnar_active());
  IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<AggregateResult> want,
                             RunProbes(row_service));

  for (const int num_shards : {1, 4}) {
    for (const int num_threads : {1, 4}) {
      ServeOptions opts;
      opts.cache_slots = 0;
      opts.num_shards = num_shards;
      opts.num_threads = num_threads;
      QueryService col_service(&small_env_, &schema_, &small_edb_, opts);
      ASSERT_TRUE(col_service.columnar_active())
          << "shards=" << num_shards << " threads=" << num_threads;
      IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<AggregateResult> got,
                                 RunProbes(col_service));
      ExpectSameResults(want, got);
    }
  }
}

// Four client threads scan one mirror at once through a 4-worker pool (the
// case TSan checks for concurrent mirror reads); each sees the serial
// row-path answers.
TEST_F(ColumnarServeTest, ShardedThreadedColumnarMatchesSerial) {
  ServeOptions serial;
  serial.cache_slots = 0;
  QueryService row_service(&big_env_, &schema_, &big_edb_, serial);
  IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<AggregateResult> want,
                             RunProbes(row_service));

  ServeOptions opts;
  opts.cache_slots = 0;
  opts.num_shards = 4;
  opts.num_threads = 4;
  QueryService col_service(&small_env_, &schema_, &small_edb_, opts);
  ASSERT_TRUE(col_service.columnar_active());

  constexpr int kClients = 4;
  std::vector<Result<std::vector<AggregateResult>>> got(
      kClients, Status::Internal("not run"));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] { got[c] = RunProbes(col_service); });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    IOLAP_ASSERT_OK(got[c].status());
    ExpectSameResults(want, *got[c]);
  }
}

// A pool that holds the EDB serves row pages from memory, where decoding
// the mirror would only cost: no mirror is built.
TEST_F(ColumnarServeTest, FittingReadOnlyServiceScansRows) {
  for (const int num_shards : {1, 4}) {
    ServeOptions opts;
    opts.num_shards = num_shards;
    QueryService service(&big_env_, &schema_, &big_edb_, opts);
    EXPECT_FALSE(service.columnar_active());
  }
}

// A maintained EDB changes under any mirror, so a maintained service scans
// rows however small its pool — before and after Compact.
TEST_F(ColumnarServeTest, MaintainedServiceNeverBuildsMirror) {
  IOLAP_ASSERT_OK_AND_ASSIGN(
      TypedFile<FactRecord> facts,
      CopyFile(facts_, big_env_, small_env_, "facts_copy"));
  std::vector<FactRecord> first;
  {
    auto cursor = facts.Scan(small_env_.pool());
    FactRecord f;
    IOLAP_ASSERT_OK(cursor.Next(&f));
    first.push_back(f);
  }
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager,
      MaintenanceManager::Build(small_env_, schema_, &facts, options));
  ASSERT_GT(manager->edb().size_in_pages(), kSmallPool);

  ServeOptions opts;
  opts.cache_slots = 0;
  QueryService service(manager.get(), opts);
  EXPECT_FALSE(service.columnar_active());

  IOLAP_ASSERT_OK(service.DeleteFacts(first));
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GT(removed, 0);
  EXPECT_FALSE(service.columnar_active());

  QueryEngine engine(&small_env_, &schema_, &manager->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult want,
      engine.Aggregate(QueryRegion::All(), AggregateFunc::kSum));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult got,
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum));
  ExpectNearOracle(want.value, got.value);
}

}  // namespace
}  // namespace iolap
