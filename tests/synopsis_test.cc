// The approximate answer tier: the bounded-answer primitives, synopsis
// exactness against the query engine, incremental maintenance vs a rebuild
// from scratch across a seeded mutation stream, and the service-level
// contract — a bounded answer is within its promised bound, bounded(0) is
// memcmp-equal to exact mode, and bounded cache entries never serve exact
// queries.

#include "synopsis/synopsis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/query_service.h"
#include "synopsis/bounded.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

constexpr AggregateFunc kAllFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
    AggregateFunc::kMin, AggregateFunc::kMax};

// ---------------------------------------------------------------------------
// Bounded-answer primitives.

TEST(BoundedPrimitivesTest, FrechetIntersection) {
  // Two slices of mass 6 and 7 out of total 10: intersection in [3, 6].
  Interval i = FrechetIntersection(10, {6, 7});
  EXPECT_DOUBLE_EQ(i.lo, 3);
  EXPECT_DOUBLE_EQ(i.hi, 6);
  // One slice is exact.
  i = FrechetIntersection(10, {4});
  EXPECT_DOUBLE_EQ(i.lo, 4);
  EXPECT_DOUBLE_EQ(i.hi, 4);
  EXPECT_TRUE(i.degenerate());
  // Disjoint-compatible slices: lower bound clamps to 0.
  i = FrechetIntersection(10, {2, 3});
  EXPECT_DOUBLE_EQ(i.lo, 0);
  EXPECT_DOUBLE_EQ(i.hi, 2);
  // Slices are clamped into [0, total].
  i = FrechetIntersection(5, {7, 9});
  EXPECT_DOUBLE_EQ(i.lo, 5);
  EXPECT_DOUBLE_EQ(i.hi, 5);
}

TEST(BoundedPrimitivesTest, MassTimesRange) {
  const Interval mass{2, 5};
  Interval s = MassTimesRange(mass, 1, 3);
  EXPECT_DOUBLE_EQ(s.lo, 2);   // least mass at least value
  EXPECT_DOUBLE_EQ(s.hi, 15);  // most mass at most value
  s = MassTimesRange(mass, -3, -1);
  EXPECT_DOUBLE_EQ(s.lo, -15);
  EXPECT_DOUBLE_EQ(s.hi, -2);
  s = MassTimesRange(mass, -2, 3);
  EXPECT_DOUBLE_EQ(s.lo, -10);  // max mass of negatives
  EXPECT_DOUBLE_EQ(s.hi, 15);
}

TEST(BoundedPrimitivesTest, ConcentrationHalfWidths) {
  EXPECT_DOUBLE_EQ(HoeffdingHalfWidth(0, 0.05), 0);
  const double t1 = HoeffdingHalfWidth(1.0, 0.05);
  EXPECT_NEAR(t1, std::sqrt(std::log(2 / 0.05) / 2), 1e-12);
  // More per-term spread or less allowed failure probability both widen.
  EXPECT_LT(t1, HoeffdingHalfWidth(4.0, 0.05));
  EXPECT_LT(t1, HoeffdingHalfWidth(1.0, 0.01));
  EXPECT_DOUBLE_EQ(ChebyshevHalfWidth(0.16, 0.04), 2.0);
}

TEST(BoundedPrimitivesTest, ComposeExactShards) {
  // Two exact shards: the composition is exact with bound 0 and the sums
  // add across shards.
  ShardTerms a;
  a.exact = true;
  a.mass = {2, 2};
  a.sum = {10, 10};
  a.mass_hat = 2;
  a.sum_hat = 10;
  a.vlo = 4;
  a.vhi = 6;
  a.minmax_exact = true;
  ShardTerms b = a;
  b.mass = {3, 3};
  b.sum = {30, 30};
  b.mass_hat = 3;
  b.sum_hat = 30;
  b.vlo = 9;
  b.vhi = 11;
  BoundedAggregate sum = ComposeBounded({a, b}, AggregateFunc::kSum, 0.05);
  EXPECT_TRUE(sum.exact);
  EXPECT_DOUBLE_EQ(sum.bound, 0);
  EXPECT_DOUBLE_EQ(sum.result.value, 40);
  BoundedAggregate cnt = ComposeBounded({a, b}, AggregateFunc::kCount, 0.05);
  EXPECT_DOUBLE_EQ(cnt.result.value, 5);
  BoundedAggregate avg = ComposeBounded({a, b}, AggregateFunc::kAverage, 0.05);
  EXPECT_DOUBLE_EQ(avg.result.value, 8);
  BoundedAggregate mn = ComposeBounded({a, b}, AggregateFunc::kMin, 0.05);
  EXPECT_DOUBLE_EQ(mn.result.value, 4);
  EXPECT_DOUBLE_EQ(mn.bound, 0);
  BoundedAggregate mx = ComposeBounded({a, b}, AggregateFunc::kMax, 0.05);
  EXPECT_DOUBLE_EQ(mx.result.value, 11);
}

TEST(BoundedPrimitivesTest, MinMaxNotBoundedWhenApprox) {
  ShardTerms approx;
  approx.exact = false;
  approx.mass = {1, 3};
  approx.sum = {5, 15};
  approx.mass_hat = 2;
  approx.sum_hat = 10;
  approx.vlo = 1;
  approx.vhi = 9;
  const BoundedAggregate mn =
      ComposeBounded({approx}, AggregateFunc::kMin, 0.05);
  EXPECT_FALSE(mn.exact);
  EXPECT_TRUE(std::isinf(mn.bound));
}

// ---------------------------------------------------------------------------
// Store-level exactness and bounds on the paper example.

Result<TypedFile<FactRecord>> CopyFacts(StorageEnv& env,
                                        const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

/// Every region over nodes of dimensions 0 and 1 at every level, so the
/// probe set has 0-, 1- and 2-dimension-constrained regions.
std::vector<QueryRegion> RegionsOverDims01(const StarSchema& schema) {
  std::vector<QueryRegion> regions = {QueryRegion::All()};
  std::vector<NodeId> d0{schema.dim(0).root()};
  std::vector<NodeId> d1{schema.dim(1).root()};
  for (int l = 1; l <= schema.dim(0).num_levels(); ++l) {
    for (NodeId n : schema.dim(0).nodes_at_level(l)) d0.push_back(n);
  }
  for (int l = 1; l <= schema.dim(1).num_levels(); ++l) {
    for (NodeId n : schema.dim(1).nodes_at_level(l)) d1.push_back(n);
  }
  for (NodeId a : d0) {
    for (NodeId b : d1) {
      regions.push_back(QueryRegion::All().With(0, a).With(1, b));
    }
  }
  return regions;
}

class SynopsisStoreTest : public ::testing::Test {
 protected:
  SynopsisStoreTest() : env_(MakeTempDir(), 256) {}

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
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, CopyFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  std::vector<QueryRegion> AllRegions() const {
    return RegionsOverDims01(schema_);
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(SynopsisStoreTest, MarginalRegionsAreExact) {
  SynopsisStore store(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(store.Build());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : AllRegions()) {
    int constrained = 0;
    for (int d = 0; d < schema_.num_dims(); ++d) {
      if (RegionConstrainsDim(schema_, region, d)) ++constrained;
    }
    if (constrained > 1) continue;
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(BoundedAggregate got,
                                 store.EstimateAggregate(region, func, 0.05));
      EXPECT_TRUE(got.exact);
      EXPECT_DOUBLE_EQ(got.bound, 0);
      EXPECT_NEAR(got.result.value, expected.value, 1e-9)
          << "func " << static_cast<int>(func);
    }
  }
  EXPECT_GT(store.stats().exact_hits, 0);
}

TEST_F(SynopsisStoreTest, CrossRegionsAreWithinBound) {
  SynopsisStore store(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(store.Build());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  int bounded_answers = 0;
  for (const QueryRegion& region : AllRegions()) {
    for (AggregateFunc func :
         {AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage}) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(BoundedAggregate got,
                                 store.EstimateAggregate(region, func, 0.05));
      if (std::isinf(got.bound)) continue;
      // The certain (Fréchet) component of the bound always contains the
      // truth on this deterministic fixture; allow fp slack.
      EXPECT_LE(std::abs(got.result.value - expected.value),
                got.bound + 1e-9 * std::max(1.0, std::abs(expected.value)))
          << "func " << static_cast<int>(func);
      ++bounded_answers;
    }
  }
  EXPECT_GT(bounded_answers, 0);
}

TEST_F(SynopsisStoreTest, ShardedStoreMatchesSingleShard) {
  // Split dimension 0's leaves into two shards; every estimate must agree
  // with the single-shard store on exact (<=1-dim) regions.
  const int32_t leaves = schema_.dim(0).num_leaves();
  SynopsisStore one(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(one.Build());
  SynopsisStore two(&env_, &schema_, &manager_->edb());
  two.SetShardBounds({0, leaves / 2, leaves});
  IOLAP_ASSERT_OK(two.Build());
  ASSERT_EQ(two.num_shards(), 2);
  for (const QueryRegion& region : AllRegions()) {
    int constrained = 0;
    for (int d = 0; d < schema_.num_dims(); ++d) {
      if (RegionConstrainsDim(schema_, region, d)) ++constrained;
    }
    if (constrained > 1) continue;
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(BoundedAggregate a,
                                 one.EstimateAggregate(region, func, 0.05));
      IOLAP_ASSERT_OK_AND_ASSIGN(BoundedAggregate b,
                                 two.EstimateAggregate(region, func, 0.05));
      EXPECT_NEAR(a.result.value, b.result.value, 1e-9);
      EXPECT_TRUE(b.exact);
    }
  }
}

TEST_F(SynopsisStoreTest, UnbuiltOrStaleStoreRefuses) {
  SynopsisStore store(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(store
                .EstimateAggregate(QueryRegion::All(), AggregateFunc::kSum,
                                   0.05)
                .status()
                .code(),
            StatusCode::kUnavailable);
  IOLAP_ASSERT_OK(store.Build());
  IOLAP_ASSERT_OK(
      store.EstimateAggregate(QueryRegion::All(), AggregateFunc::kSum, 0.05)
          .status());
  store.Invalidate();
  EXPECT_EQ(store
                .EstimateAggregate(QueryRegion::All(), AggregateFunc::kSum,
                                   0.05)
                .status()
                .code(),
            StatusCode::kUnavailable);
  IOLAP_ASSERT_OK(store.RebuildIfStale());
  IOLAP_ASSERT_OK(
      store.EstimateAggregate(QueryRegion::All(), AggregateFunc::kSum, 0.05)
          .status());
}

// ---------------------------------------------------------------------------
// Incremental maintenance vs rebuild-from-scratch across a seeded stream.

/// Compares every slice of `incremental` against a store rebuilt from the
/// current EDB. Moments must agree to fp accumulation error; a patched
/// incremental envelope must *contain* the rebuilt (true) envelope.
void ExpectMatchesRebuild(const StarSchema& schema,
                          const SynopsisStore& incremental,
                          SynopsisStore* rebuilt) {
  IOLAP_ASSERT_OK(rebuilt->Build());
  for (int shard = 0; shard < incremental.num_shards(); ++shard) {
    for (int d = 0; d < schema.num_dims(); ++d) {
      for (NodeId n = 0; n < schema.dim(d).num_nodes(); ++n) {
        const SynopsisMoments inc = incremental.MomentsFor(shard, d, n);
        const SynopsisMoments fresh = rebuilt->MomentsFor(shard, d, n);
        ASSERT_EQ(inc.rows, fresh.rows)
            << "shard " << shard << " dim " << d << " node " << n;
        EXPECT_NEAR(inc.mass, fresh.mass, 1e-9);
        EXPECT_NEAR(inc.swv, fresh.swv, 1e-9);
        EXPECT_NEAR(inc.swv2, fresh.swv2, 1e-7);
        if (fresh.rows > 0) {
          if (inc.minmax_patched) {
            EXPECT_LE(inc.vmin, fresh.vmin + 1e-12);
            EXPECT_GE(inc.vmax, fresh.vmax - 1e-12);
          } else {
            EXPECT_DOUBLE_EQ(inc.vmin, fresh.vmin);
            EXPECT_DOUBLE_EQ(inc.vmax, fresh.vmax);
          }
        }
      }
    }
  }
}

TEST(SynopsisMaintenanceTest, IncrementalMatchesRebuildAcrossMutations) {
  for (uint64_t seed : {7u, 21u}) {
    StorageEnv env(MakeTempDir(), 512);
    StarSchema schema;
    {
      IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema s, MakePaperExampleSchema());
      schema = std::move(s);
    }
    DatasetSpec spec;
    spec.num_facts = 400;
    spec.seed = seed;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    std::vector<FactRecord> catalog;
    {
      auto cursor = facts.Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        catalog.push_back(f);
      }
    }
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    IOLAP_ASSERT_OK_AND_ASSIGN(
        auto manager, MaintenanceManager::Build(env, schema, &facts, options));
    ServeOptions sopts;
    sopts.synopsis = true;
    QueryService service(manager.get(), sopts);
    ASSERT_NE(service.synopsis(), nullptr);
    ASSERT_TRUE(service.synopsis()->ready());

    Rng rng(seed * 1000 + 13);
    FactId next_id = 100'000;
    const int32_t d0_leaves = schema.dim(0).num_leaves();
    const int32_t d1_leaves = schema.dim(1).num_leaves();
    for (int step = 0; step < 12; ++step) {
      const uint64_t kind = rng.Uniform(10);
      if (kind < 3 && !catalog.empty()) {  // update
        FactRecord& f = catalog[rng.Uniform(catalog.size())];
        const double measure = 1.0 + static_cast<double>(rng.Uniform(250));
        IOLAP_ASSERT_OK(service.ApplyUpdates({FactUpdate{f, measure}}));
        f.measure = measure;
      } else if (kind < 6) {  // insert (precise or imprecise in dim 0)
        FactRecord f{};
        f.fact_id = next_id++;
        f.measure = 1.0 + static_cast<double>(rng.Uniform(250));
        const NodeId leaf0 = schema.dim(0).leaf_node(
            static_cast<int32_t>(rng.Uniform(d0_leaves)));
        const NodeId n0 =
            rng.Uniform(3) == 0 ? schema.dim(0).parent(leaf0) : leaf0;
        const NodeId n1 = schema.dim(1).leaf_node(
            static_cast<int32_t>(rng.Uniform(d1_leaves)));
        f.node[0] = n0;
        f.node[1] = n1;
        f.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
        f.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
        IOLAP_ASSERT_OK(service.InsertFacts({f}));
        catalog.push_back(f);
      } else if (kind < 8 && catalog.size() > 4) {  // delete
        const size_t victim = rng.Uniform(catalog.size());
        IOLAP_ASSERT_OK(service.DeleteFacts({catalog[victim]}));
        catalog.erase(catalog.begin() + victim);
      } else {  // compact (squeezes tombstones; logical no-op)
        IOLAP_ASSERT_OK(service.Compact().status());
      }
      ASSERT_TRUE(service.synopsis()->ready()) << "step " << step;
      SynopsisStore rebuilt(&env, &schema, &manager->edb());
      ExpectMatchesRebuild(schema, *service.synopsis(), &rebuilt);
    }
    EXPECT_GT(service.synopsis()->stats().commits, 0);
  }
}

// ---------------------------------------------------------------------------
// Service-level contract.

class BoundedServeTest : public SynopsisStoreTest {};

/// The bounded contract over `regions` x every function on a service with
/// the synopsis on and the cache off: bounded(0) is memcmp-equal to the
/// exact rescan, the synopsis tier answers at least once, every exact
/// answer matches the rescan, and at most `max_violation_fraction` of the
/// synopsis's approximate answers fall outside their promised bound of it
/// (such a bound holds with probability >= 1 - delta, so only the fraction
/// is a contract).
void ExpectBoundedContract(MaintenanceManager* manager, int num_shards,
                           const std::vector<QueryRegion>& regions,
                           double max_violation_fraction) {
  ServeOptions opts;
  opts.synopsis = true;
  opts.cache_slots = 0;  // force every bounded query down to the synopsis
  opts.num_shards = num_shards;
  QueryService service(manager, opts);
  int64_t synopsis_answers = 0;
  int64_t approximate_answers = 0;
  int64_t violations = 0;
  for (const QueryRegion& region : regions) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult exact,
                                 service.UncachedAggregate(region, func));
      // epsilon = 0: literally the exact path, bit-identical result.
      AnswerStats as;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult eps0,
          service.Aggregate(region, func, AnswerSpec::Bounded(0.0), &as));
      EXPECT_TRUE(as.exact);
      EXPECT_EQ(std::memcmp(&eps0, &exact, sizeof(AggregateResult)), 0);
      // A generous budget: the synopsis answers whatever it can.
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult loose,
          service.Aggregate(region, func, AnswerSpec::Bounded(1e6), &as));
      const bool outside =
          std::abs(loose.value - exact.value) >
          as.bound + 1e-9 * std::max(1.0, std::abs(exact.value));
      if (as.tier == AnswerTier::kSynopsis) ++synopsis_answers;
      if (as.exact) {
        EXPECT_FALSE(outside) << "an exact answer missed the rescan";
        continue;
      }
      ++approximate_answers;
      if (outside) ++violations;
    }
  }
  // The synopsis tier answered at least the marginal probes.
  EXPECT_GT(synopsis_answers, 0);
  EXPECT_LE(static_cast<double>(violations),
            max_violation_fraction * static_cast<double>(approximate_answers))
      << violations << " of " << approximate_answers
      << " approximate answers outside their bound";
}

TEST_F(BoundedServeTest, BoundedAnswersWithinBoundAndEpsilonZeroIsExact) {
  // The paper example's components leave it one shard, so the contract
  // also runs on a generated EDB that splits: a 4-shard service there
  // composes its answers from per-shard store partials. On the paper
  // example every bound holds; on the generated EDB at most delta (0.05,
  // the AnswerSpec::Bounded default) of the approximate ones may fail
  // (18 of 853 at 1 shard, 7 of 441 at 4).
  StorageEnv env(MakeTempDir(), 512);
  std::vector<Hierarchy> dims;
  for (const std::vector<int>& shape :
       std::vector<std::vector<int>>{{8, 4}, {4, 4}, {4, 2}}) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        Hierarchy h,
        HierarchyBuilder::Uniform("D" + std::to_string(dims.size()), shape));
    dims.push_back(std::move(h));
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                             StarSchema::Create(std::move(dims)));
  DatasetSpec spec;
  spec.num_facts = 500;
  spec.imprecise_fraction = 0.30;
  spec.seed = 21;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto sharded, MaintenanceManager::Build(env, schema, &file, options));
  {
    ServeOptions opts;
    opts.num_shards = 4;
    ASSERT_GT(QueryService(sharded.get(), opts).num_shards(), 1);
  }

  for (const int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ExpectBoundedContract(manager_.get(), num_shards, AllRegions(), 0);
    ExpectBoundedContract(sharded.get(), num_shards,
                          RegionsOverDims01(schema), 0.05);
  }
}

TEST_F(BoundedServeTest, SynopsisAnswersReadNoEdbPages) {
  ServeOptions opts;
  opts.synopsis = true;
  opts.cache_slots = 0;
  QueryService service(manager_.get(), opts);
  const FileId edb = manager_->edb().file_id();
  // With the EDB out of the pool, any answer that touches it reads pages.
  IOLAP_ASSERT_OK(env_.pool().EvictFile(edb));
  int64_t synopsis_answers = 0;
  for (const QueryRegion& region : AllRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      const int64_t reads = env_.disk().stats().page_reads;
      AnswerStats as;
      IOLAP_ASSERT_OK(
          service.Aggregate(region, func, AnswerSpec::Bounded(1e6), &as)
              .status());
      if (as.tier != AnswerTier::kSynopsis) {
        IOLAP_ASSERT_OK(env_.pool().EvictFile(edb));  // a scan answered
        continue;
      }
      ++synopsis_answers;
      EXPECT_EQ(env_.disk().stats().page_reads, reads)
          << "a synopsis answer read EDB pages";
    }
  }
  EXPECT_GT(synopsis_answers, 0);
  // The same setup does read pages when the scan answers.
  const int64_t reads = env_.disk().stats().page_reads;
  IOLAP_ASSERT_OK(
      service.UncachedAggregate(QueryRegion::All(), AggregateFunc::kSum)
          .status());
  EXPECT_GT(env_.disk().stats().page_reads, reads);
}

TEST_F(BoundedServeTest, BoundedEntriesNeverServeExactQueries) {
  ServeOptions opts;
  opts.synopsis = true;
  opts.agg_index = false;
  QueryService service(manager_.get(), opts);
  // A 2-dim-constrained region: bounded mode answers from the synopsis
  // (nonzero bound), exact mode must scan.
  QueryRegion cross;
  bool found = false;
  for (const QueryRegion& region : AllRegions()) {
    int constrained = 0;
    for (int d = 0; d < schema_.num_dims(); ++d) {
      if (RegionConstrainsDim(schema_, region, d)) ++constrained;
    }
    if (constrained < 2) continue;
    AnswerStats as;
    IOLAP_ASSERT_OK(
        service
            .Aggregate(region, AggregateFunc::kSum, AnswerSpec::Bounded(1e6),
                       &as)
            .status());
    if (as.tier == AnswerTier::kSynopsis && as.bound > 0) {
      cross = region;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no synopsis-answered cross region in the fixture";
  // The bounded answer was cached — but an exact query on the same region
  // must not see it: it scans and returns the exact value.
  AnswerStats as;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult exact_answer,
      service.Aggregate(cross, AggregateFunc::kSum, AnswerSpec::Exact(), &as));
  EXPECT_FALSE(as.cache_hit);
  EXPECT_EQ(as.tier, AnswerTier::kScan);
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult rescan,
      service.UncachedAggregate(cross, AggregateFunc::kSum));
  EXPECT_DOUBLE_EQ(exact_answer.value, rescan.value);
  // And the exact answer (cached under the exact key) now serves bounded
  // queries too — an exact result fits any budget.
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult warm,
      service.Aggregate(cross, AggregateFunc::kSum, AnswerSpec::Bounded(1e6),
                        &as));
  EXPECT_TRUE(as.cache_hit);
  EXPECT_DOUBLE_EQ(as.bound, 0);
  EXPECT_DOUBLE_EQ(warm.value, rescan.value);
}

TEST_F(BoundedServeTest, BoundedModeSurvivesMutations) {
  ServeOptions opts;
  opts.synopsis = true;
  QueryService service(manager_.get(), opts);
  const QueryRegion region = QueryRegion::All();
  AnswerStats as;
  IOLAP_ASSERT_OK(
      service
          .Aggregate(region, AggregateFunc::kSum, AnswerSpec::Bounded(1e6),
                     &as)
          .status());
  // Mutate, then re-ask: the synopsis committed the delta, and the bounded
  // answer tracks the new exact value.
  FactUpdate u{facts_[0], facts_[0].measure + 37.0};
  IOLAP_ASSERT_OK(service.ApplyUpdates({u}));
  IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult exact,
                             service.UncachedAggregate(region,
                                                       AggregateFunc::kSum));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult bounded,
      service.Aggregate(region, AggregateFunc::kSum, AnswerSpec::Bounded(1e6),
                        &as));
  EXPECT_LE(std::abs(bounded.value - exact.value),
            as.bound + 1e-9 * std::max(1.0, std::abs(exact.value)));
}

}  // namespace
}  // namespace iolap
