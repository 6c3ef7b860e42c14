// Cross-cutting invariant and integration tests: conservation laws of the
// Extended Database, component census vs a brute-force reference, window
// bounds, and the Transitive algorithm's external (large-component) path.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/allocator.h"
#include "alloc/preprocess.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "graph/union_find.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

std::vector<FactRecord> ReadFacts(StorageEnv& env,
                                  const TypedFile<FactRecord>& facts) {
  std::vector<FactRecord> out;
  auto cursor = facts.Scan(env.pool());
  FactRecord f;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&f).ok());
    out.push_back(f);
  }
  return out;
}

// Brute-force connected components of the allocation graph: nodes are the
// distinct precise cells plus the imprecise facts; edges join a fact to
// every cell inside its region.
struct ReferenceComponents {
  int64_t num_components = 0;       // components containing >= 1 fact
  int64_t largest = 0;              // in tuples (cells + facts)
  int64_t singleton_cells = 0;
  std::multiset<int64_t> sizes;
};

ReferenceComponents BruteForceComponents(const StarSchema& schema,
                                         const std::vector<FactRecord>& facts) {
  const int k = schema.num_dims();
  using Cell = std::array<int32_t, kMaxDims>;
  std::map<Cell, int> cell_ids;
  std::vector<const FactRecord*> imprecise;
  for (const FactRecord& f : facts) {
    if (f.IsPrecise(k)) {
      Cell c{};
      for (int d = 0; d < k; ++d) c[d] = schema.dim(d).leaf_begin(f.node[d]);
      cell_ids.emplace(c, static_cast<int>(cell_ids.size()));
    } else {
      imprecise.push_back(&f);
    }
  }
  UnionFind uf(static_cast<int32_t>(cell_ids.size() + imprecise.size()));
  std::vector<bool> fact_connected(imprecise.size(), false);
  std::vector<bool> cell_connected(cell_ids.size(), false);
  for (size_t i = 0; i < imprecise.size(); ++i) {
    int32_t fact_node = static_cast<int32_t>(cell_ids.size() + i);
    for (const auto& [cell, id] : cell_ids) {
      bool inside = true;
      for (int d = 0; d < k && inside; ++d) {
        inside = schema.dim(d).Covers(imprecise[i]->node[d], cell[d]);
      }
      if (inside) {
        uf.Union(fact_node, id);
        fact_connected[i] = true;
        cell_connected[id] = true;
      }
    }
  }
  std::map<int32_t, int64_t> size_of;
  for (const auto& [cell, id] : cell_ids) {
    if (cell_connected[id]) ++size_of[uf.Find(id)];
  }
  for (size_t i = 0; i < imprecise.size(); ++i) {
    if (fact_connected[i]) {
      ++size_of[uf.Find(static_cast<int32_t>(cell_ids.size() + i))];
    }
  }
  ReferenceComponents out;
  out.num_components = static_cast<int64_t>(size_of.size());
  for (const auto& [root, size] : size_of) {
    out.largest = std::max(out.largest, size);
    out.sizes.insert(size);
  }
  for (const auto& [cell, id] : cell_ids) {
    if (!cell_connected[id]) ++out.singleton_cells;
  }
  return out;
}

StarSchema SmallSchema() {
  std::vector<Hierarchy> dims;
  auto d0 = HierarchyBuilder::Uniform("D0", {3, 4});
  auto d1 = HierarchyBuilder::Uniform("D1", {4, 3});
  EXPECT_TRUE(d0.ok() && d1.ok());
  dims.push_back(std::move(d0).value());
  dims.push_back(std::move(d1).value());
  auto s = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(ComponentCensusTest, MatchesBruteForceOnRandomData) {
  StarSchema schema = SmallSchema();
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    StorageEnv env(MakeTempDir(), 64);
    DatasetSpec spec;
    spec.num_facts = 300;
    spec.imprecise_fraction = 0.4;
    spec.allow_all = seed % 2 == 0;
    spec.seed = seed;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    std::vector<FactRecord> raw = ReadFacts(env, facts);
    ReferenceComponents want = BruteForceComponents(schema, raw);

    AllocationOptions options;
    options.algorithm = AlgorithmKind::kTransitive;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    EXPECT_EQ(result.components.num_components, want.num_components)
        << "seed " << seed;
    EXPECT_EQ(result.components.largest_component, want.largest)
        << "seed " << seed;
    EXPECT_EQ(result.components.num_singleton_cells, want.singleton_cells)
        << "seed " << seed;
  }
}

TEST(ConservationTest, AllocatedMassEqualsFactMass) {
  StarSchema schema = SmallSchema();
  StorageEnv env(MakeTempDir(), 64);
  DatasetSpec spec;
  spec.num_facts = 500;
  spec.imprecise_fraction = 0.5;
  spec.seed = 6;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  std::vector<FactRecord> raw = ReadFacts(env, facts);

  AllocationOptions options;
  options.algorithm = AlgorithmKind::kBlock;
  options.epsilon = 1e-8;
  options.max_iterations = 300;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));

  std::map<FactId, double> weight_sum;
  double measure_mass = 0;
  auto cursor = result.edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_ASSERT_OK(cursor.Next(&rec));
    weight_sum[rec.fact_id] += rec.weight;
    measure_mass += rec.weight * rec.measure;
  }
  // Every allocatable fact contributes exactly its measure once.
  double expected_mass = 0;
  int64_t allocatable = 0;
  for (const FactRecord& f : raw) {
    auto it = weight_sum.find(f.fact_id);
    if (it != weight_sum.end()) {
      EXPECT_NEAR(it->second, 1.0, 1e-9) << "fact " << f.fact_id;
      expected_mass += f.measure;
      ++allocatable;
    }
  }
  EXPECT_NEAR(measure_mass, expected_mass, 1e-6);
  EXPECT_EQ(allocatable + result.unallocatable_facts,
            static_cast<int64_t>(raw.size()));
}

// A dataset whose single giant component exceeds a tiny buffer: ALL-in-D0
// facts connect every D1 slice.
std::vector<FactRecord> GiantComponentFacts(const StarSchema& schema) {
  std::vector<FactRecord> raw;
  Rng rng(3);
  int64_t id = 1;
  // Precise facts covering every cell (144 cells).
  for (int32_t a = 0; a < schema.dim(0).num_leaves(); ++a) {
    for (int32_t b = 0; b < schema.dim(1).num_leaves(); ++b) {
      FactRecord f;
      f.fact_id = id++;
      f.measure = 1 + rng.NextDouble();
      f.node[0] = schema.dim(0).leaf_node(a);
      f.node[1] = schema.dim(1).leaf_node(b);
      f.level[0] = f.level[1] = 1;
      raw.push_back(f);
    }
  }
  // ALL x leaf facts tie all rows within a column; leaf x ALL facts tie
  // the columns together, giving one giant component.
  for (int32_t b = 0; b < schema.dim(1).num_leaves(); ++b) {
    FactRecord f;
    f.fact_id = id++;
    f.measure = 2;
    f.node[0] = schema.dim(0).root();
    f.level[0] = static_cast<uint8_t>(schema.dim(0).num_levels());
    f.node[1] = schema.dim(1).leaf_node(b);
    f.level[1] = 1;
    raw.push_back(f);
    for (int extra = 0; extra < 20; ++extra) {  // inflate the component
      FactRecord g = f;
      g.fact_id = id++;
      g.measure = 1 + rng.NextDouble();
      raw.push_back(g);
    }
  }
  for (int32_t a = 0; a < schema.dim(0).num_leaves(); ++a) {
    FactRecord f;
    f.fact_id = id++;
    f.measure = 3;
    f.node[0] = schema.dim(0).leaf_node(a);
    f.level[0] = 1;
    f.node[1] = schema.dim(1).root();
    f.level[1] = static_cast<uint8_t>(schema.dim(1).num_levels());
    raw.push_back(f);
  }
  return raw;
}

TypedFile<FactRecord> WriteFacts(StorageEnv& env,
                                 const std::vector<FactRecord>& raw) {
  auto file = TypedFile<FactRecord>::Create(env.disk(), "facts");
  EXPECT_TRUE(file.ok());
  auto appender = file->MakeAppender(env.pool());
  for (const FactRecord& f : raw) EXPECT_TRUE(appender.Append(f).ok());
  appender.Close();
  return std::move(file).value();
}

TEST(LargeComponentTest, ExternalPathKicksInAndMatchesBasic) {
  StarSchema schema = SmallSchema();
  const std::vector<FactRecord> raw = GiantComponentFacts(schema);

  // Reference: Basic with a huge buffer.
  std::map<std::pair<FactId, int64_t>, double> reference;
  {
    StorageEnv env(MakeTempDir(), 512);
    auto facts = WriteFacts(env, raw);
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kBasic;
    options.epsilon = 0;
    options.max_iterations = 6;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult r,
                               Allocator::Run(env, schema, &facts, options));
    auto cursor = r.edb.Scan(env.pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      reference[{rec.fact_id, rec.leaf[0] * 1000 + rec.leaf[1]}] = rec.weight;
    }
  }
  // Transitive with a tiny buffer must take the external component path.
  {
    StorageEnv env(MakeTempDir(), 6);
    auto facts = WriteFacts(env, raw);
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kTransitive;
    options.epsilon = 0;
    options.max_iterations = 6;
    options.early_convergence = false;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult r,
                               Allocator::Run(env, schema, &facts, options));
    EXPECT_GE(r.components.num_large_components, 1);
    auto cursor = r.edb.Scan(env.pool());
    EdbRecord rec;
    int64_t rows = 0;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      auto it = reference.find({rec.fact_id, rec.leaf[0] * 1000 + rec.leaf[1]});
      ASSERT_NE(it, reference.end());
      EXPECT_NEAR(rec.weight, it->second, 1e-9);
      ++rows;
    }
    EXPECT_EQ(rows, static_cast<int64_t>(reference.size()));
  }
}

// Runs PrepareDataset + RunTransitive and checks the component directory
// against a brute-force reference over the component-sorted files it
// indexes: ranges ascend contiguously, each holds exactly one connected
// component of the allocation graph, each bbox is the union of its
// members' leaf boxes, and the EDB ranges tile the imprecise EDB. Returns
// an FNV-1a 64 digest of the directory's fields over the schema's dims.
uint64_t CheckedDirectoryDigest(StorageEnv& env, const StarSchema& schema,
                                const TypedFile<FactRecord>& facts,
                                const AllocationOptions& options,
                                AllocationResult* result) {
  const int k = schema.num_dims();
  auto prepared = PrepareDataset(env, schema, &facts, options);
  EXPECT_TRUE(prepared.ok());
  PreparedDataset data = std::move(prepared).value();
  result->edb = data.precise_edb;
  const int64_t precise_rows = result->edb.size();
  std::vector<ComponentInfo> dir;
  EXPECT_TRUE(
      RunTransitive(env, schema, &data, options, result, &dir).ok());

  std::vector<CellRecord> cells;
  std::vector<ImpreciseRecord> entries;
  {
    auto cur = data.cells.Scan(env.pool());
    CellRecord c;
    while (!cur.done()) {
      EXPECT_TRUE(cur.Next(&c).ok());
      cells.push_back(c);
    }
    auto ecur = data.imprecise.Scan(env.pool());
    ImpreciseRecord e;
    while (!ecur.done()) {
      EXPECT_TRUE(ecur.Next(&e).ok());
      entries.push_back(e);
    }
  }
  // Tuple t < |C| is cell t; tuple |C| + j is entry j of the sorted files.
  const int64_t nc = static_cast<int64_t>(cells.size());
  const int64_t ne = static_cast<int64_t>(entries.size());
  UnionFind uf(static_cast<int32_t>(nc + ne));
  std::vector<bool> connected(nc + ne, false);
  for (int64_t j = 0; j < ne; ++j) {
    if (entries[j].fact_id < 0) continue;  // page-padding sentinel
    for (int64_t c = 0; c < nc; ++c) {
      if (RegionCovers(schema, entries[j].node, cells[c].leaf)) {
        uf.Union(static_cast<int32_t>(nc + j), static_cast<int32_t>(c));
        connected[nc + j] = connected[c] = true;
      }
    }
  }
  std::map<int32_t, int64_t> component_size;
  for (int64_t t = 0; t < nc + ne; ++t) {
    if (connected[t]) ++component_size[uf.Find(static_cast<int32_t>(t))];
  }
  EXPECT_EQ(dir.size(), component_size.size());

  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  auto fold = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ static_cast<uint8_t>(v >> (8 * i))) * 1099511628211ULL;
    }
  };
  std::set<int32_t> roots_seen;
  int64_t cell_end = 0, entry_end = 0, edb_end = precise_rows;
  int32_t prev_ccid = -1;
  for (const ComponentInfo& info : dir) {
    EXPECT_GT(info.ccid, prev_ccid);
    EXPECT_EQ(info.cell_begin, cell_end);
    EXPECT_EQ(info.entry_begin, entry_end);
    EXPECT_EQ(info.edb_begin, edb_end);
    EXPECT_LE(info.edb_begin, info.edb_end);
    EXPECT_GT(info.tuples(), 0);
    prev_ccid = info.ccid;
    cell_end = info.cell_end;
    entry_end = info.entry_end;
    edb_end = info.edb_end;

    // One whole connected component, and its leaf-box union.
    std::vector<int64_t> members;
    for (int64_t c = info.cell_begin; c < info.cell_end; ++c) {
      members.push_back(c);
    }
    for (int64_t j = info.entry_begin; j < info.entry_end; ++j) {
      members.push_back(nc + j);
    }
    const int32_t root = uf.Find(static_cast<int32_t>(members[0]));
    EXPECT_TRUE(roots_seen.insert(root).second);
    EXPECT_EQ(component_size[root], info.tuples());
    int32_t lo[kMaxDims], hi[kMaxDims];
    for (int d = 0; d < k; ++d) {
      lo[d] = schema.dim(d).num_leaves();
      hi[d] = -1;
    }
    for (int64_t t : members) {
      EXPECT_TRUE(connected[t]);
      EXPECT_EQ(uf.Find(static_cast<int32_t>(t)), root);
      for (int d = 0; d < k; ++d) {
        int32_t b, e;
        if (t < nc) {
          b = e = cells[t].leaf[d];
        } else {
          const int32_t node = entries[t - nc].node[d];
          b = schema.dim(d).leaf_begin(node);
          e = schema.dim(d).leaf_end(node) - 1;
        }
        lo[d] = std::min(lo[d], b);
        hi[d] = std::max(hi[d], e);
      }
    }
    for (int d = 0; d < k; ++d) {
      EXPECT_EQ(info.bbox_lo[d], lo[d]) << "ccid " << info.ccid;
      EXPECT_EQ(info.bbox_hi[d], hi[d]) << "ccid " << info.ccid;
    }

    fold(info.ccid);
    fold(info.cell_begin);
    fold(info.cell_end);
    fold(info.entry_begin);
    fold(info.entry_end);
    fold(info.edb_begin);
    fold(info.edb_end);
    for (int d = 0; d < k; ++d) {
      fold(info.bbox_lo[d]);
      fold(info.bbox_hi[d]);
    }
  }
  EXPECT_EQ(edb_end, result->edb.size());
  // Behind the last component: only tuples in no component.
  for (int64_t c = cell_end; c < nc; ++c) EXPECT_FALSE(connected[c]);
  for (int64_t j = entry_end; j < ne; ++j) EXPECT_FALSE(connected[nc + j]);
  EXPECT_EQ(result->components.num_singleton_cells, nc - cell_end);
  return h;
}

// Many small components on a 64x64-cell grid, with singleton cells and
// facts that overlap no cell.
TypedFile<FactRecord> ScatteredFacts(StorageEnv& env, StarSchema* schema) {
  std::vector<Hierarchy> dims;
  for (const char* name : {"D0", "D1"}) {
    auto dim = HierarchyBuilder::Uniform(name, {4, 4, 4});
    EXPECT_TRUE(dim.ok());
    dims.push_back(std::move(dim).value());
  }
  auto created = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(created.ok());
  *schema = std::move(created).value();
  DatasetSpec spec;
  spec.num_facts = 1500;
  spec.imprecise_fraction = 0.3;
  spec.skew = 0;
  spec.num_hotspots = 400;
  spec.anchored = false;  // some facts overlap no cell
  spec.seed = 5;
  auto facts = GenerateFacts(env, *schema, spec);
  EXPECT_TRUE(facts.ok());
  return std::move(facts).value();
}

TEST(ComponentDirectoryTest, InMemoryComponentsPinned) {
  StorageEnv env(MakeTempDir(), 32);
  StarSchema schema = SmallSchema();
  auto facts = ScatteredFacts(env, &schema);
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kTransitive;
  AllocationResult result;
  const uint64_t digest =
      CheckedDirectoryDigest(env, schema, facts, options, &result);
  EXPECT_EQ(result.components.num_large_components, 0);
  EXPECT_GT(result.components.num_components, 20);
  EXPECT_GT(result.unallocatable_facts, 0);
  EXPECT_GT(result.components.num_singleton_cells, 0);
  EXPECT_EQ(digest, 0x7c43d9c96dd0fc3eULL);
}

// A pool so small that the largest component runs externally between
// in-memory ones.
TEST(ComponentDirectoryTest, MixedComponentsPinned) {
  StorageEnv env(MakeTempDir(), 4);
  StarSchema schema = SmallSchema();
  auto facts = ScatteredFacts(env, &schema);
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kTransitive;
  AllocationResult result;
  const uint64_t digest =
      CheckedDirectoryDigest(env, schema, facts, options, &result);
  EXPECT_EQ(result.components.num_large_components, 1);
  EXPECT_GT(result.components.num_components, 20);
  EXPECT_EQ(digest, 0x3eef4e1a9380a4e6ULL);
}

TEST(ComponentDirectoryTest, ExternalComponentPinned) {
  StarSchema schema = SmallSchema();
  StorageEnv env(MakeTempDir(), 6);
  auto facts = WriteFacts(env, GiantComponentFacts(schema));
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kTransitive;
  options.epsilon = 0;
  options.max_iterations = 6;
  options.early_convergence = false;
  AllocationResult result;
  const uint64_t digest =
      CheckedDirectoryDigest(env, schema, facts, options, &result);
  EXPECT_EQ(result.components.num_large_components, 1);
  EXPECT_EQ(digest, 0xae989368121a9d44ULL);
}

TEST(ConvergenceTest, FinalEpsBelowThresholdWhenConverged) {
  StarSchema schema = SmallSchema();
  StorageEnv env(MakeTempDir(), 128);
  DatasetSpec spec;
  spec.num_facts = 400;
  spec.imprecise_fraction = 0.4;
  spec.seed = 8;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kBlock;
  options.epsilon = 0.01;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EXPECT_LT(result.final_eps, 0.01);
  EXPECT_GE(result.iterations, 1);
  EXPECT_LT(result.iterations, options.max_iterations);
}

TEST(ConvergenceTest, TighterEpsilonNeverFewerIterations) {
  StarSchema schema = SmallSchema();
  int prev_iterations = 0;
  for (double eps : {0.5, 0.05, 0.005, 0.0005}) {
    StorageEnv env(MakeTempDir(), 128);
    DatasetSpec spec;
    spec.num_facts = 400;
    spec.imprecise_fraction = 0.4;
    spec.seed = 8;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kBlock;
    options.epsilon = eps;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    EXPECT_GE(result.iterations, prev_iterations);
    prev_iterations = result.iterations;
  }
}

}  // namespace
}  // namespace iolap
