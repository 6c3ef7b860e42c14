// Golden maintained EDB: a seeded stream of multi-fact mixed batches —
// updates, precise and imprecise inserts that merge components, deletes
// that dissolve a component, and one compaction — applied through
// MaintenanceManager on a small pool. Each policy's final EDB bytes (FNV-1a
// digest over the scanned records), row count, component-directory size and
// the batches' counted page I/O are pinned below, so any change to R-tree
// operation order, search-hit order, segment concatenation order (the EM
// summation order) or the I/O schedule of the commit path shows up here.
// The stream ends with the rebuild-equivalence check (Theorem 9).
//
// The same stream also drives a QueryService with every answer tier on
// (cache, aggregate index, synopsis, 4 shards); after each batch its
// aggregates and rollups must match a QueryEngine over a fresh Transitive
// re-allocation of the mutated fact table. Every served read (exact,
// bounded at epsilon > 0 and at epsilon = 0, and the Uncached* rescans)
// also folds into a digest pinned with the final cache, index and store
// counters, so a change to which tier answers, what it promises or the
// answer's bytes shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/query_service.h"
#include "tests/rebuild_oracle.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

StarSchema MakeStreamSchema() {
  std::vector<Hierarchy> dims;
  const std::vector<std::vector<int>> shapes = {{8, 8}, {8, 4}, {4, 2}};
  for (size_t d = 0; d < shapes.size(); ++d) {
    auto h = HierarchyBuilder::Uniform("D" + std::to_string(d), shapes[d]);
    EXPECT_TRUE(h.ok());
    dims.push_back(std::move(h).value());
  }
  auto schema = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

AllocationOptions StreamOptions(PolicyKind policy) {
  AllocationOptions options;
  options.policy = policy;
  options.epsilon = 0;  // fixed iteration count
  options.max_iterations = 4;
  options.early_convergence = false;
  return options;
}

Result<std::vector<FactRecord>> GenerateTable(const StarSchema& schema) {
  StorageEnv scratch(MakeTempDir(), 64);
  DatasetSpec spec;
  spec.num_facts = 600;
  spec.imprecise_fraction = 0.3;
  spec.skew = 0;
  spec.num_hotspots = 100;  // many small components, so inserts can merge
  spec.seed = 5;
  IOLAP_ASSIGN_OR_RETURN(auto file, GenerateFacts(scratch, schema, spec));
  std::vector<FactRecord> facts;
  auto cursor = file.Scan(scratch.pool());
  FactRecord f;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&f));
    facts.push_back(f);
  }
  return facts;
}

// ---------------------------------------------------------------------------
// The stream.

struct Batch {
  enum Kind { kInsert, kUpdate, kDelete, kCompact } kind = kInsert;
  std::vector<FactRecord> facts;  // inserts or deletes
  std::vector<FactUpdate> updates;
};

constexpr int kSteps = 13;
constexpr int kCompactStep = 7;

FactRecord PreciseAt(const StarSchema& schema, FactId id, double measure,
                     const std::array<LeafId, kMaxDims>& leaf) {
  FactRecord f;
  f.fact_id = id;
  f.measure = measure;
  for (int d = 0; d < schema.num_dims(); ++d) {
    f.node[d] = schema.dim(d).leaf_node(leaf[d]);
    f.level[d] = 1;
  }
  return f;
}

// `count` distinct indices into `facts` whose precision matches `precise`.
std::vector<size_t> PickDistinct(const StarSchema& schema,
                                 const std::vector<FactRecord>& facts,
                                 bool precise, size_t count, Rng* rng) {
  std::set<size_t> picked;
  for (int tries = 0; picked.size() < count && tries < 10'000; ++tries) {
    const size_t i = rng->Uniform(facts.size());
    if (facts[i].IsPrecise(schema.num_dims()) == precise) picked.insert(i);
  }
  return {picked.begin(), picked.end()};
}

/// Draws batch `step` against the current fact table `facts` and advances
/// the table to what the batch leaves behind.
Batch NextBatch(const StarSchema& schema, int step, Rng* rng,
                std::vector<FactRecord>* facts, FactId* next_id) {
  const int k = schema.num_dims();
  Batch batch;
  if (step == kCompactStep) {
    batch.kind = Batch::kCompact;
    return batch;
  }
  batch.kind = static_cast<Batch::Kind>(step % 3);
  switch (batch.kind) {
    case Batch::kInsert: {
      // Two imprecise facts generalizing existing facts by one or two
      // levels per dimension (they overlap, and often merge, neighbouring
      // components).
      for (int i = 0; i < 2; ++i) {
        FactRecord f = (*facts)[rng->Uniform(facts->size())];
        f.fact_id = (*next_id)++;
        f.measure = 1 + 100 * rng->NextDouble();
        for (int d = 0; d < k; ++d) {
          const Hierarchy& h = schema.dim(d);
          const int level = std::min<int>(
              h.num_levels() - 1,
              f.level[d] + 1 + static_cast<int>(rng->Uniform(2)));
          f.node[d] = h.AncestorAtLevel(f.node[d], level);
          f.level[d] = static_cast<uint8_t>(level);
        }
        batch.facts.push_back(f);
      }
      // A precise fact in an existing precise fact's cell (a δ shift).
      const std::vector<size_t> same = PickDistinct(schema, *facts, true, 1,
                                                    rng);
      std::array<LeafId, kMaxDims> leaf{};
      for (int d = 0; d < k; ++d) {
        leaf[d] = schema.dim(d).leaf_begin((*facts)[same[0]].node[d]);
      }
      batch.facts.push_back(
          PreciseAt(schema, (*next_id)++, 1 + 100 * rng->NextDouble(), leaf));
      // Two precise facts in random cells of an imprecise fact's region
      // (usually new cells that some component's facts cover).
      const std::vector<size_t> hosts =
          PickDistinct(schema, *facts, false, 2, rng);
      for (size_t host : hosts) {
        for (int d = 0; d < k; ++d) {
          const Hierarchy& h = schema.dim(d);
          const NodeId n = (*facts)[host].node[d];
          leaf[d] = h.leaf_begin(n) +
                    static_cast<LeafId>(rng->Uniform(h.region_width(n)));
        }
        batch.facts.push_back(PreciseAt(schema, (*next_id)++,
                                        1 + 100 * rng->NextDouble(), leaf));
      }
      // And one precise fact anywhere.
      for (int d = 0; d < k; ++d) {
        leaf[d] = static_cast<LeafId>(
            rng->Uniform(schema.dim(d).num_leaves()));
      }
      batch.facts.push_back(
          PreciseAt(schema, (*next_id)++, 1 + 100 * rng->NextDouble(), leaf));
      facts->insert(facts->end(), batch.facts.begin(), batch.facts.end());
      break;
    }
    case Batch::kUpdate: {
      std::vector<size_t> picks = PickDistinct(schema, *facts, true, 3, rng);
      for (size_t i : PickDistinct(schema, *facts, false, 2, rng)) {
        picks.push_back(i);
      }
      for (size_t i : picks) {
        FactUpdate u{(*facts)[i], 1 + 100 * rng->NextDouble()};
        batch.updates.push_back(u);
        (*facts)[i].measure = u.new_measure;
      }
      break;
    }
    case Batch::kDelete: {
      std::vector<size_t> picks = PickDistinct(schema, *facts, false, 3, rng);
      for (size_t i : PickDistinct(schema, *facts, true, 2, rng)) {
        picks.push_back(i);
      }
      std::sort(picks.rbegin(), picks.rend());
      for (size_t i : picks) {
        batch.facts.push_back((*facts)[i]);
        facts->erase(facts->begin() + static_cast<int64_t>(i));
      }
      break;
    }
    case Batch::kCompact:
      break;
  }
  return batch;
}

template <typename Target>
Status ApplyBatch(Target& target, const Batch& batch,
                  MaintenanceStats* stats) {
  switch (batch.kind) {
    case Batch::kInsert:
      return target.InsertFacts(batch.facts, stats);
    case Batch::kUpdate:
      return target.ApplyUpdates(batch.updates, stats);
    case Batch::kDelete:
      return target.DeleteFacts(batch.facts, stats);
    case Batch::kCompact:
      break;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// MaintainedEdbGolden.

struct GoldenParam {
  PolicyKind policy;
  uint64_t digest;  // FNV-1a 64 over the EDB records in file order
  int64_t rows;     // EDB rows, tombstones included
  int64_t directory;
  int64_t page_reads;  // summed MaintenanceStats::io over the batches
  int64_t page_writes;
};

constexpr GoldenParam kGolden[] = {
    {PolicyKind::kCount, 0x345488d6fb6a7cfaULL, 1148, 79, 91, 126},
    {PolicyKind::kMeasure, 0xb705162c69a7b33bULL, 1148, 79, 91, 133},
};

const char* PolicyLabel(PolicyKind policy) {
  return policy == PolicyKind::kCount ? "Count" : "Measure";
}

void PrintTo(const GoldenParam& p, std::ostream* os) {
  *os << PolicyLabel(p.policy);
}

std::string GoldenName(const ::testing::TestParamInfo<GoldenParam>& info) {
  return PolicyLabel(info.param.policy);
}

class MaintainedEdbGolden : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(MaintainedEdbGolden, StreamIsPinned) {
  const GoldenParam& param = GetParam();
  const StarSchema schema = MakeStreamSchema();
  const AllocationOptions options = StreamOptions(param.policy);
  IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<FactRecord> facts,
                             GenerateTable(schema));
  StorageEnv env(MakeTempDir(), 16);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env, facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));

  Rng rng(2026);
  FactId next_id = 100'000;
  MaintenanceStats stats;
  int64_t dissolved = 0;
  for (int step = 0; step < kSteps; ++step) {
    const Batch batch = NextBatch(schema, step, &rng, &facts, &next_id);
    const int64_t components_before = manager->rtree().size();
    if (batch.kind == Batch::kCompact) {
      IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, manager->CompactEdb());
      EXPECT_GT(removed, 0);
    }
    IOLAP_ASSERT_OK(ApplyBatch(*manager, batch, &stats));
    // Deletes never merge, so a smaller tree means a dissolved component.
    if (batch.kind == Batch::kDelete) {
      dissolved += components_before - manager->rtree().size();
    }
  }
  // The stream exercises what it claims to.
  EXPECT_GT(stats.components_merged, 0);
  EXPECT_GT(dissolved, 0);
  EXPECT_GT(stats.edb_rows_tombstoned, 0);

  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  int64_t rows = 0;
  auto cursor = manager->edb().Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_ASSERT_OK(cursor.Next(&rec));
    const auto* bytes = reinterpret_cast<const unsigned char*>(&rec);
    for (size_t i = 0; i < sizeof(rec); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
    ++rows;
  }
  EXPECT_EQ(h, param.digest);
  EXPECT_EQ(rows, param.rows);
  EXPECT_EQ(static_cast<int64_t>(manager->directory().size()),
            param.directory);
  EXPECT_EQ(stats.io.page_reads, param.page_reads);
  EXPECT_EQ(stats.io.page_writes, param.page_writes);
  ExpectEquivalentToRebuild(schema, *manager, facts, options);
}

INSTANTIATE_TEST_SUITE_P(Policies, MaintainedEdbGolden,
                         ::testing::ValuesIn(kGolden), GoldenName);

// ---------------------------------------------------------------------------
// Service oracle: every tier against a from-scratch re-allocation.

void ExpectSameAnswer(const AggregateResult& served,
                      const AggregateResult& expected, const std::string& what) {
  EXPECT_NEAR(served.value, expected.value,
              1e-6 * std::max(1.0, std::abs(expected.value)))
      << what;
}

/// Served-read digest and final tier counters of the oracle stream.
struct ServedGolden {
  PolicyKind policy;
  uint64_t digest;  // FNV-1a 64 over every served read, in read order
  AggregateCache::Stats cache;
  int64_t index_probes;
  int64_t index_nodes_read;
  int64_t store_estimates;
  int64_t store_exact_hits;
};

constexpr ServedGolden kServed[] = {
    {PolicyKind::kCount, 0xa91584a73c9cc77fULL, {8935, 2035, 1985, 0, 1560},
     48, 2546, 1987, 1383},
    {PolicyKind::kMeasure, 0x99324e35cc4b2e85ULL, {8935, 2035, 1985, 0, 1560},
     48, 2546, 1987, 1383},
};

/// FNV-1a 64 over the bytes of what a served read returned.
class ReadDigest {
 public:
  template <typename T>
  void Fold(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(value); ++i) {
      h_ = (h_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void Fold(const AnswerStats& answer) {
    Fold(answer.tier);
    Fold(answer.exact);
    Fold(answer.bound);
    Fold(answer.cache_hit);
  }
  void Fold(const std::vector<AggregateResult>& groups) {
    for (const AggregateResult& g : groups) Fold(g);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

class MaintainedServiceOracle : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(MaintainedServiceOracle, EveryTierMatchesRebuildAfterEachBatch) {
  const ServedGolden& param =
      kServed[GetParam() == PolicyKind::kCount ? 0 : 1];
  ASSERT_EQ(param.policy, GetParam());
  const StarSchema schema = MakeStreamSchema();
  const AllocationOptions options = StreamOptions(GetParam());
  IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<FactRecord> facts,
                             GenerateTable(schema));
  StorageEnv env(MakeTempDir(), 256);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env, facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));

  ServeOptions serve;  // serve_mixed's tiers
  serve.agg_index = true;
  serve.synopsis = true;
  serve.num_shards = 4;
  QueryService service(manager.get(), serve);
  ASSERT_GE(service.num_shards(), 2);

  // Probes: everything, each dimension-0 node below the root (a leaf probe
  // goes stale when a commit's reported boxes miss one row), a cross region
  // and one leaf-level region.
  const Hierarchy& h0 = schema.dim(0);
  const Hierarchy& h1 = schema.dim(1);
  std::vector<QueryRegion> probes = {QueryRegion::All()};
  for (int level : {2, 1}) {
    for (NodeId n : h0.nodes_at_level(level)) {
      probes.push_back(QueryRegion::All().With(0, n));
    }
  }
  probes.push_back(QueryRegion::All()
                       .With(0, h0.nodes_at_level(2)[1])
                       .With(1, h1.nodes_at_level(2)[2]));
  probes.push_back(QueryRegion::All()
                       .With(0, h0.nodes_at_level(1)[5])
                       .With(1, h1.nodes_at_level(1)[3]));
  const AggregateFunc funcs[] = {AggregateFunc::kSum, AggregateFunc::kCount,
                                 AggregateFunc::kAverage, AggregateFunc::kMin,
                                 AggregateFunc::kMax};

  // A point aggregate is not a rollup.
  EXPECT_EQ(service.RollUp(QueryRegion::All(), -1, 1, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  int64_t tier_answers[4] = {};  // by AnswerTier
  ReadDigest digest;
  Rng rng(2026);
  FactId next_id = 100'000;
  for (int step = 0; step < kSteps; ++step) {
    const Batch batch = NextBatch(schema, step, &rng, &facts, &next_id);
    if (batch.kind == Batch::kCompact) {
      IOLAP_ASSERT_OK(service.Compact().status());
    }
    IOLAP_ASSERT_OK(ApplyBatch(service, batch, nullptr));

    StorageEnv env_rb(MakeTempDir(), 256);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts_rb, WriteFacts(env_rb, facts));
    AllocationOptions opts = options;
    opts.algorithm = AlgorithmKind::kTransitive;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult rebuilt,
                               Allocator::Run(env_rb, schema, &facts_rb, opts));
    const QueryEngine engine(&env_rb, &schema, &rebuilt.edb);

    for (size_t p = 0; p < probes.size(); ++p) {
      for (AggregateFunc func : funcs) {
        const std::string what = "step " + std::to_string(step) + " probe " +
                                 std::to_string(p) + " func " +
                                 std::to_string(static_cast<int>(func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   engine.Aggregate(probes[p], func));
        AnswerStats answer;
        IOLAP_ASSERT_OK_AND_ASSIGN(
            AggregateResult got,
            service.Aggregate(probes[p], func, AnswerSpec::Exact(), &answer));
        ExpectSameAnswer(got, want, what);
        ++tier_answers[static_cast<int>(answer.tier)];
        digest.Fold(answer);
        digest.Fold(got);
        // A zero error budget is the exact contract, byte for byte.
        IOLAP_ASSERT_OK_AND_ASSIGN(
            AggregateResult zero,
            service.Aggregate(probes[p], func, AnswerSpec::Bounded(0),
                              &answer));
        EXPECT_EQ(std::memcmp(&zero, &got, sizeof(got)), 0) << what;
        EXPECT_TRUE(answer.exact) << what;
        digest.Fold(answer);
        digest.Fold(zero);
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult rescanned,
                                   service.UncachedAggregate(probes[p], func));
        ExpectSameAnswer(rescanned, want, what);
        digest.Fold(rescanned);
      }
    }
    // Bounded reads over two-dimension crosses, which the store can only
    // estimate: a budget first, then none.
    for (NodeId n : h0.nodes_at_level(2)) {
      const QueryRegion cross =
          QueryRegion::All().With(0, n).With(1, h1.nodes_at_level(2)[1]);
      for (AggregateFunc func : funcs) {
        const std::string what = "step " + std::to_string(step) + " cross " +
                                 std::to_string(n) + " func " +
                                 std::to_string(static_cast<int>(func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult want,
                                   engine.Aggregate(cross, func));
        for (double epsilon : {25.0, 0.0}) {
          AnswerStats answer;
          IOLAP_ASSERT_OK_AND_ASSIGN(
              AggregateResult got,
              service.Aggregate(cross, func, AnswerSpec::Bounded(epsilon),
                                &answer));
          EXPECT_LE(std::abs(got.value - want.value),
                    answer.bound + 1e-6 * std::max(1.0, std::abs(want.value)))
              << what << " epsilon " << epsilon;
          if (epsilon == 0) {
            EXPECT_TRUE(answer.exact) << what;
          }
          digest.Fold(answer);
          digest.Fold(got);
        }
      }
    }
    for (AggregateFunc func : funcs) {
      for (int dim = 0; dim < 2; ++dim) {
        const QueryRegion region =
            dim == 0 ? QueryRegion::All()
                     : QueryRegion::All().With(0, h0.nodes_at_level(2)[3]);
        IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<AggregateResult> want,
                                   engine.RollUp(region, dim, 2, func));
        bool cache_hit = false;
        IOLAP_ASSERT_OK_AND_ASSIGN(
            std::vector<AggregateResult> got,
            service.RollUp(region, dim, 2, func, nullptr, &cache_hit));
        ASSERT_EQ(got.size(), want.size());
        IOLAP_ASSERT_OK_AND_ASSIGN(
            std::vector<AggregateResult> rescanned,
            service.UncachedRollUp(region, dim, 2, func));
        ASSERT_EQ(rescanned.size(), want.size());
        digest.Fold(cache_hit);
        digest.Fold(got);
        digest.Fold(rescanned);
        for (size_t g = 0; g < want.size(); ++g) {
          const std::string what =
              "step " + std::to_string(step) + " rollup dim " +
              std::to_string(dim) + " group " + std::to_string(g) + " func " +
              std::to_string(static_cast<int>(func));
          ExpectSameAnswer(got[g], want[g], what);
          ExpectSameAnswer(rescanned[g], want[g], what);
        }
      }
    }
  }
  // Answers that survived a commit came from the cache; the rest from the
  // partial stores or a scan.
  EXPECT_GT(tier_answers[static_cast<int>(AnswerTier::kCache)], 0);
  EXPECT_GT(tier_answers[static_cast<int>(AnswerTier::kSynopsis)] +
                tier_answers[static_cast<int>(AnswerTier::kIndex)],
            0);

  EXPECT_EQ(digest.value(), param.digest);
  const AggregateCache::Stats cache = service.cache()->stats();
  EXPECT_EQ(cache.hits, param.cache.hits);
  EXPECT_EQ(cache.misses, param.cache.misses);
  EXPECT_EQ(cache.inserted_entries, param.cache.inserted_entries);
  EXPECT_EQ(cache.evicted_entries, param.cache.evicted_entries);
  EXPECT_EQ(cache.invalidated_entries, param.cache.invalidated_entries);
  const AggIndex::Stats index = service.agg_index()->stats();
  EXPECT_EQ(index.probes, param.index_probes);
  EXPECT_EQ(index.nodes_read, param.index_nodes_read);
  const SynopsisStore::Stats store = service.synopsis()->stats();
  EXPECT_EQ(store.estimates, param.store_estimates);
  EXPECT_EQ(store.exact_hits, param.store_exact_hits);
}

INSTANTIATE_TEST_SUITE_P(Policies, MaintainedServiceOracle,
                         ::testing::Values(PolicyKind::kCount,
                                           PolicyKind::kMeasure),
                         [](const auto& info) {
                           return std::string(PolicyLabel(info.param));
                         });

}  // namespace
}  // namespace iolap
