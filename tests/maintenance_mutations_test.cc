// Insert/delete maintenance (the full Section 9 story): incremental
// application of structural changes must leave the EDB equivalent to a
// from-scratch rebuild over the mutated fact table. Tombstoned rows
// (weight 0) are ignored when comparing.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "rtree/rect.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

using CellKey = std::array<int32_t, kMaxDims>;
using EdbMap = std::map<std::pair<FactId, CellKey>, std::pair<double, double>>;

EdbMap LoadLiveEdb(StorageEnv& env, const TypedFile<EdbRecord>& edb) {
  EdbMap out;
  auto cursor = edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&rec).ok());
    if (rec.weight == 0 && rec.fact_id == -1) continue;  // tombstone
    CellKey key{};
    std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
    auto [it, inserted] =
        out.emplace(std::make_pair(rec.fact_id, key),
                    std::make_pair(rec.weight, rec.measure));
    EXPECT_TRUE(inserted) << "duplicate live row for fact " << rec.fact_id;
  }
  return out;
}

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

void ExpectEquivalentToRebuild(const StarSchema& schema,
                               MaintenanceManager& manager,
                               const std::vector<FactRecord>& final_facts,
                               const AllocationOptions& options) {
  EdbMap incremental = LoadLiveEdb(manager.env(), manager.edb());
  StorageEnv env_rb(MakeTempDir(), 256);
  auto facts_rb = WriteFacts(env_rb, final_facts);
  ASSERT_TRUE(facts_rb.ok());
  AllocationOptions opts = options;
  opts.algorithm = AlgorithmKind::kTransitive;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AllocationResult rebuilt,
      Allocator::Run(env_rb, schema, &facts_rb.value(), opts));
  EdbMap rebuild = LoadLiveEdb(env_rb, rebuilt.edb);
  ASSERT_EQ(incremental.size(), rebuild.size());
  for (const auto& [key, wm] : rebuild) {
    auto it = incremental.find(key);
    ASSERT_NE(it, incremental.end()) << "missing row for fact " << key.first;
    EXPECT_NEAR(it->second.first, wm.first, 1e-6) << "fact " << key.first;
    EXPECT_NEAR(it->second.second, wm.second, 1e-9) << "fact " << key.first;
  }
}

FactRecord MakeFact(const StarSchema& schema, FactId id, double measure,
                    const char* n0, const char* n1) {
  FactRecord f;
  f.fact_id = id;
  f.measure = measure;
  auto a = schema.dim(0).FindNode(n0);
  auto b = schema.dim(1).FindNode(n1);
  EXPECT_TRUE(a.ok() && b.ok());
  f.node[0] = *a;
  f.node[1] = *b;
  f.level[0] = static_cast<uint8_t>(schema.dim(0).level(*a));
  f.level[1] = static_cast<uint8_t>(schema.dim(1).level(*b));
  return f;
}

class MutationsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
    options_.policy = PolicyKind::kMeasure;
    options_.epsilon = 1e-9;
    options_.max_iterations = 300;
  }

  std::unique_ptr<MaintenanceManager> BuildManager(
      StorageEnv& env, const std::vector<FactRecord>& facts) {
    auto file = WriteFacts(env, facts);
    EXPECT_TRUE(file.ok());
    auto manager =
        MaintenanceManager::Build(env, schema_, &file.value(), options_);
    EXPECT_TRUE(manager.ok()) << manager.status();
    return std::move(manager).value();
  }

  std::vector<FactRecord> PaperFacts(StorageEnv& scratch) {
    auto file = MakePaperExampleFacts(scratch, schema_);
    EXPECT_TRUE(file.ok());
    std::vector<FactRecord> out;
    auto cursor = file->Scan(scratch.pool());
    FactRecord f;
    while (!cursor.done()) {
      EXPECT_TRUE(cursor.Next(&f).ok());
      out.push_back(f);
    }
    return out;
  }

  StarSchema schema_;
  AllocationOptions options_;
};

TEST_F(MutationsTest, InsertPreciseIntoExistingCell) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  // Another sale at (MA, Civic): shifts δ, reallocates CC1.
  FactRecord f = MakeFact(schema_, 200, 500, "MA", "Civic");
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->InsertFacts({f}, &stats));
  EXPECT_EQ(stats.inserts_applied, 1);
  EXPECT_GE(stats.components_touched, 1);
  facts.push_back(f);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, InsertPreciseCreatesNewCellInsideComponent) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  // (MA, Camry) is not in C, but p6 = (MA, Sedan) covers it: the new cell
  // must join CC1 and give p6 a second completion.
  FactRecord f = MakeFact(schema_, 201, 75, "MA", "Camry");
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->InsertFacts({f}, &stats));
  facts.push_back(f);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, InsertPreciseIsolatedCell) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  // (TX, Camry) is covered by no imprecise fact: a loose new cell.
  FactRecord f = MakeFact(schema_, 202, 33, "TX", "Camry");
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->InsertFacts({f}, &stats));
  facts.push_back(f);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);

  // Then an imprecise fact over TX absorbs the loose cell.
  FactRecord g = MakeFact(schema_, 203, 44, "TX", "ALL");
  IOLAP_ASSERT_OK(manager->InsertFacts({g}, &stats));
  facts.push_back(g);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, InsertImpreciseMergesComponents) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);
  ASSERT_EQ(manager->rtree().size(), 2);  // CC1 and CC2

  // (ALL, ALL) overlaps both components: they must merge into one.
  FactRecord f;
  f.fact_id = 300;
  f.measure = 1000;
  f.node[0] = schema_.dim(0).root();
  f.level[0] = static_cast<uint8_t>(schema_.dim(0).num_levels());
  f.node[1] = schema_.dim(1).root();
  f.level[1] = static_cast<uint8_t>(schema_.dim(1).num_levels());
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->InsertFacts({f}, &stats));
  EXPECT_EQ(stats.components_merged, 1);
  EXPECT_EQ(manager->rtree().size(), 1);
  facts.push_back(f);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, DeleteImpreciseFact) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  // Delete p9 (East, Truck).
  FactRecord p9 = facts[8];
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->DeleteFacts({p9}, &stats));
  EXPECT_EQ(stats.deletes_applied, 1);
  facts.erase(facts.begin() + 8);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, DeletePreciseFact) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  // Delete p2 (MA, Sierra): its cell's δ drops, CC2 reallocates; its own
  // EDB row is tombstoned.
  FactRecord p2 = facts[1];
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->DeleteFacts({p2}, &stats));
  EXPECT_GE(stats.edb_rows_tombstoned, 1);
  facts.erase(facts.begin() + 1);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, DeleteLastImpreciseFactDissolvesComponent) {
  StorageEnv env(MakeTempDir(), 256);
  std::vector<FactRecord> facts = {
      MakeFact(schema_, 1, 10, "MA", "Civic"),
      MakeFact(schema_, 2, 20, "MA", "Sedan"),  // the only imprecise fact
  };
  auto manager = BuildManager(env, facts);
  ASSERT_EQ(manager->rtree().size(), 1);

  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->DeleteFacts({facts[1]}, &stats));
  EXPECT_EQ(manager->rtree().size(), 0);
  facts.pop_back();
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);

  // The freed cell is findable again: a new imprecise fact re-forms a
  // component around it.
  FactRecord g = MakeFact(schema_, 3, 30, "East", "Civic");
  IOLAP_ASSERT_OK(manager->InsertFacts({g}, &stats));
  EXPECT_EQ(manager->rtree().size(), 1);
  facts.push_back(g);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, MixedBatchesThenCompact) {
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  MaintenanceStats stats;
  // Batch 1: insert two facts.
  FactRecord a = MakeFact(schema_, 400, 60, "NY", "Sedan");
  FactRecord b = MakeFact(schema_, 401, 70, "NY", "Camry");
  IOLAP_ASSERT_OK(manager->InsertFacts({a, b}, &stats));
  facts.push_back(a);
  facts.push_back(b);
  // Batch 2: delete one old fact and update another.
  IOLAP_ASSERT_OK(manager->DeleteFacts({facts[12]}, &stats));  // p13
  facts.erase(facts.begin() + 12);
  FactUpdate u{facts[0], 123.0};
  IOLAP_ASSERT_OK(manager->ApplyUpdates({u}, &stats));
  facts[0].measure = 123.0;
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);

  // Compaction drops the tombstones but preserves the live rows and keeps
  // the directory consistent for further batches.
  EdbMap before = LoadLiveEdb(env, manager->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, manager->CompactEdb());
  EXPECT_GE(removed, 0);
  EdbMap after = LoadLiveEdb(env, manager->edb());
  EXPECT_EQ(before, after);
  EXPECT_EQ(manager->edb().size(), static_cast<int64_t>(after.size()));

  FactRecord c = MakeFact(schema_, 402, 80, "West", "Truck");
  IOLAP_ASSERT_OK(manager->InsertFacts({c}, &stats));
  facts.push_back(c);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, PrefixScansSurviveCompaction) {
  // Regression: compaction can shrink the EDB below the original precise
  // prefix; subsequent prefix scans (updates/deletes of precise facts)
  // must clamp to the file size.
  StorageEnv scratch(MakeTempDir(), 32);
  std::vector<FactRecord> facts = PaperFacts(scratch);
  StorageEnv env(MakeTempDir(), 256);
  auto manager = BuildManager(env, facts);

  MaintenanceStats stats;
  // Delete several precise facts -> tombstones in the prefix; then compact.
  IOLAP_ASSERT_OK(manager->DeleteFacts({facts[1], facts[2]}, &stats));
  facts.erase(facts.begin() + 2);
  facts.erase(facts.begin() + 1);
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, manager->CompactEdb());
  EXPECT_GE(removed, 2);
  // Now operations that scan the precise prefix must still work.
  FactUpdate u{facts[0], 777.0};
  IOLAP_ASSERT_OK(manager->ApplyUpdates({u}, &stats));
  facts[0].measure = 777.0;
  IOLAP_ASSERT_OK(manager->DeleteFacts({facts[3]}, &stats));
  facts.erase(facts.begin() + 3);
  ExpectEquivalentToRebuild(schema_, *manager, facts, options_);
}

TEST_F(MutationsTest, RandomizedMutationStream) {
  std::vector<Hierarchy> dims;
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                             HierarchyBuilder::Uniform("D0", {3, 3}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                             HierarchyBuilder::Uniform("D1", {2, 2, 2}));
  dims.push_back(d0);
  dims.push_back(d1);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                             StarSchema::Create(std::move(dims)));
  options_.policy = PolicyKind::kMeasure;

  StorageEnv scratch(MakeTempDir(), 64);
  DatasetSpec spec;
  spec.num_facts = 250;
  spec.imprecise_fraction = 0.35;
  spec.seed = 77;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto gen, GenerateFacts(scratch, schema, spec));
  std::vector<FactRecord> facts;
  {
    auto cursor = gen.Scan(scratch.pool());
    FactRecord f;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&f));
      facts.push_back(f);
    }
  }

  StorageEnv env(MakeTempDir(), 256);
  auto file = WriteFacts(env, facts);
  ASSERT_TRUE(file.ok());
  auto built = MaintenanceManager::Build(env, schema, &file.value(), options_);
  ASSERT_TRUE(built.ok());
  auto manager = std::move(built).value();

  Rng rng(555);
  FactId next_id = 10'000;
  for (int step = 0; step < 10; ++step) {
    MaintenanceStats stats;
    double action = rng.NextDouble();
    if (action < 0.4 && !facts.empty()) {
      size_t pick = rng.Uniform(facts.size());
      IOLAP_ASSERT_OK(manager->DeleteFacts({facts[pick]}, &stats));
      facts.erase(facts.begin() + static_cast<int64_t>(pick));
    } else if (action < 0.7) {
      // Insert: generalize a random existing fact's region, or a random
      // precise one.
      FactRecord f;
      f.fact_id = next_id++;
      f.measure = 1 + 10 * rng.NextDouble();
      for (int d = 0; d < schema.num_dims(); ++d) {
        const Hierarchy& h = schema.dim(d);
        int level = 1 + static_cast<int>(rng.Uniform(h.num_levels()));
        const auto& nodes = h.nodes_at_level(level);
        f.node[d] = nodes[rng.Uniform(nodes.size())];
        f.level[d] = static_cast<uint8_t>(level);
      }
      IOLAP_ASSERT_OK(manager->InsertFacts({f}, &stats));
      facts.push_back(f);
    } else if (!facts.empty()) {
      size_t pick = rng.Uniform(facts.size());
      FactUpdate u{facts[pick], 1 + 10 * rng.NextDouble()};
      IOLAP_ASSERT_OK(manager->ApplyUpdates({u}, &stats));
      facts[pick].measure = u.new_measure;
    }
  }
  ExpectEquivalentToRebuild(schema, *manager, facts, options_);
}

/// touched_boxes is the contract the serve layer (cache invalidation, agg
/// index patching) stands on: sound — every EDB row whose value changed
/// lies inside some reported box — and tight — a mutation confined to one
/// half of the domain reports no box reaching into the untouched half.
TEST_F(MutationsTest, TouchedBoxesAreSoundAndTight) {
  std::vector<Hierarchy> dims;
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                             HierarchyBuilder::Uniform("D0", {2, 4}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                             HierarchyBuilder::Uniform("D1", {2, 2}));
  dims.push_back(d0);
  dims.push_back(d1);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                             StarSchema::Create(std::move(dims)));
  const int k = schema.num_dims();
  const NodeId half_a = schema.dim(0).nodes_at_level(2)[0];  // leaves 0..3
  const NodeId half_b = schema.dim(0).nodes_at_level(2)[1];  // leaves 4..7
  const auto& d0_leaves = schema.dim(0).nodes_at_level(1);
  const auto& d1_leaves = schema.dim(1).nodes_at_level(1);
  auto leaf_fact = [&](FactId id, double measure, NodeId n0, NodeId n1) {
    FactRecord f;
    f.fact_id = id;
    f.measure = measure;
    f.node[0] = n0;
    f.node[1] = n1;
    f.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
    f.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
    return f;
  };
  std::vector<FactRecord> facts = {
      leaf_fact(1, 10, d0_leaves[0], d1_leaves[0]),
      leaf_fact(2, 20, d0_leaves[1], d1_leaves[1]),
      leaf_fact(3, 30, half_a, d1_leaves[0]),  // imprecise, confined to A
      leaf_fact(4, 40, d0_leaves[4], d1_leaves[0]),
      leaf_fact(5, 50, d0_leaves[5], d1_leaves[1]),
      leaf_fact(6, 60, half_b, d1_leaves[1]),  // imprecise, confined to B
  };

  StorageEnv env(MakeTempDir(), 256);
  auto file = WriteFacts(env, facts);
  ASSERT_TRUE(file.ok());
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager,
      MaintenanceManager::Build(env, schema, &file.value(), options_));

  EdbMap before = LoadLiveEdb(env, manager->edb());
  // Mutate half B only: bump the precise fact 4 (shifts the measure-policy
  // allocation of fact 6's component) and delete fact 5.
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->ApplyUpdates({FactUpdate{facts[3], 400.0}}, &stats));
  IOLAP_ASSERT_OK(manager->DeleteFacts({facts[4]}, &stats));
  ASSERT_GT(stats.touched_boxes.size(), 0u);
  EdbMap after = LoadLiveEdb(env, manager->edb());

  auto in_some_box = [&](const CellKey& cell) {
    for (const Rect& r : stats.touched_boxes) {
      bool inside = true;
      for (int d = 0; d < k; ++d) {
        if (cell[d] < r.lo[d] || cell[d] > r.hi[d]) inside = false;
      }
      if (inside) return true;
    }
    return false;
  };
  // Soundness: rows that changed, appeared, or vanished all sit inside a
  // reported box.
  int changed = 0;
  for (const auto& [key, wm] : before) {
    auto it = after.find(key);
    if (it != after.end() && std::abs(it->second.first - wm.first) < 1e-12 &&
        std::abs(it->second.second - wm.second) < 1e-12) {
      continue;
    }
    ++changed;
    EXPECT_TRUE(in_some_box(key.second))
        << "changed row of fact " << key.first << " outside every box";
  }
  for (const auto& [key, wm] : after) {
    if (before.count(key) != 0) continue;
    ++changed;
    EXPECT_TRUE(in_some_box(key.second))
        << "new row of fact " << key.first << " outside every box";
  }
  ASSERT_GT(changed, 0);

  // Tightness: nothing in half A moved, so no box may reach into A's leaf
  // range — a box spanning the whole domain would pass soundness but
  // needlessly invalidate A's cached results.
  Rect a_rect;
  a_rect.lo[0] = schema.dim(0).leaf_begin(half_a);
  a_rect.hi[0] = schema.dim(0).leaf_end(half_a) - 1;
  a_rect.lo[1] = 0;
  a_rect.hi[1] = static_cast<int32_t>(d1_leaves.size()) - 1;
  for (const Rect& r : stats.touched_boxes) {
    EXPECT_FALSE(RectsIntersect(r, a_rect, k))
        << "touched box leaks into the unmutated half";
  }
  for (const auto& [key, wm] : before) {
    if (key.second[0] > a_rect.hi[0]) continue;  // a B-side row
    auto it = after.find(key);
    ASSERT_NE(it, after.end());
    EXPECT_NEAR(it->second.first, wm.first, 1e-12);
    EXPECT_NEAR(it->second.second, wm.second, 1e-12);
  }
}

}  // namespace
}  // namespace iolap
