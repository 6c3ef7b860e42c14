#include "model/sort_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "graph/union_find.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

StarSchema MakeSchema() {
  std::vector<Hierarchy> dims;
  auto d0 = HierarchyBuilder::Uniform("D0", {3, 2});
  auto d1 = HierarchyBuilder::Uniform("D1", {2, 2, 2});
  EXPECT_TRUE(d0.ok());
  EXPECT_TRUE(d1.ok());
  dims.push_back(std::move(d0).value());
  dims.push_back(std::move(d1).value());
  auto schema = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

CellRecord Cell(int32_t a, int32_t b) {
  CellRecord c;
  c.leaf[0] = a;
  c.leaf[1] = b;
  return c;
}

ImpreciseRecord Region(const StarSchema& schema, NodeId n0, NodeId n1) {
  ImpreciseRecord r;
  r.node[0] = n0;
  r.node[1] = n1;
  r.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
  r.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
  return r;
}

TEST(SortSpecTest, CanonicalIsLeafLex) {
  StarSchema schema = MakeSchema();
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  EXPECT_TRUE(cmp.CellLess(Cell(0, 5), Cell(1, 0)));
  EXPECT_TRUE(cmp.CellLess(Cell(1, 0), Cell(1, 1)));
  EXPECT_FALSE(cmp.CellLess(Cell(1, 1), Cell(1, 1)));
  EXPECT_FALSE(cmp.CellLess(Cell(2, 0), Cell(1, 7)));
}

TEST(SortSpecTest, ChainSpecEmitsTopDownTerms) {
  StarSchema schema = MakeSchema();
  // Chain: <2,3> above <1,2> (D0: 3 levels, D1: 4 levels).
  std::vector<LevelVector> descending;
  LevelVector top{};
  top.fill(1);
  top[0] = 2;
  top[1] = 3;
  LevelVector bottom{};
  bottom.fill(1);
  bottom[0] = 1;
  bottom[1] = 2;
  descending.push_back(top);
  descending.push_back(bottom);
  SortSpec spec = SortSpec::ForChain(schema, descending);
  // Expect terms (0,2),(1,3) then (0,1),(1,2) then (1,1).
  ASSERT_EQ(spec.terms().size(), 5u);
  EXPECT_EQ(spec.terms()[0].dim, 0);
  EXPECT_EQ(spec.terms()[0].level, 2);
  EXPECT_EQ(spec.terms()[1].dim, 1);
  EXPECT_EQ(spec.terms()[1].level, 3);
  EXPECT_EQ(spec.terms()[2].dim, 0);
  EXPECT_EQ(spec.terms()[2].level, 1);
  EXPECT_EQ(spec.terms()[3].dim, 1);
  EXPECT_EQ(spec.terms()[3].level, 2);
  EXPECT_EQ(spec.terms()[4].dim, 1);
  EXPECT_EQ(spec.terms()[4].level, 1);
}

// The load/evict window invariant: a region covers a cell only if the
// cell's key lies within [region start key, region end key] — for every
// spec (Theorem 3/5's machinery).
TEST(SortSpecTest, CoverageImpliesKeyIntervalContainment) {
  StarSchema schema = MakeSchema();
  Rng rng(5);
  std::vector<SortSpec> specs;
  specs.push_back(SortSpec::Canonical(schema));
  {
    LevelVector v{};
    v.fill(1);
    v[0] = 2;
    v[1] = 2;
    specs.push_back(SortSpec::ForChain(schema, {v}));
  }
  for (const SortSpec& spec : specs) {
    SpecComparator cmp(&schema, spec);
    for (int trial = 0; trial < 500; ++trial) {
      NodeId n0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
      NodeId n1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
      ImpreciseRecord r = Region(schema, n0, n1);
      CellRecord c = Cell(static_cast<int32_t>(
                              rng.Uniform(schema.dim(0).num_leaves())),
                          static_cast<int32_t>(
                              rng.Uniform(schema.dim(1).num_leaves())));
      if (RegionCovers(schema, r.node, c.leaf)) {
        const int n = cmp.key_words();
        std::vector<uint64_t> start(n), end(n), cell(n);
        cmp.RegionStartKey(r, start.data(), n);
        cmp.RegionEndKey(r, end.data(), n);
        cmp.CellKey(c.leaf, cell.data(), n);
        EXPECT_LE(start, cell);
        EXPECT_GE(end, cell);
      }
    }
  }
}

// Chain contiguity (Theorem 5): under a chain's sort order, each summary
// table in the chain has *contiguous* regions — cells covered by one
// region form a contiguous run of the sorted cell sequence.
TEST(SortSpecTest, ChainOrderMakesRegionsContiguous) {
  StarSchema schema = MakeSchema();
  LevelVector top{};
  top.fill(1);
  top[0] = 3;  // ALL in D0
  top[1] = 3;
  LevelVector mid{};
  mid.fill(1);
  mid[0] = 2;
  mid[1] = 3;
  LevelVector low{};
  low.fill(1);
  low[0] = 2;
  low[1] = 2;
  SortSpec spec = SortSpec::ForChain(schema, {top, mid, low});
  SpecComparator cmp(&schema, spec);

  // All cells, sorted by the chain spec.
  std::vector<CellRecord> cells;
  for (int32_t a = 0; a < schema.dim(0).num_leaves(); ++a) {
    for (int32_t b = 0; b < schema.dim(1).num_leaves(); ++b) {
      cells.push_back(Cell(a, b));
    }
  }
  std::sort(cells.begin(), cells.end(),
            [&](const CellRecord& x, const CellRecord& y) {
              return cmp.CellLess(x, y);
            });

  for (const LevelVector& levels : {top, mid, low}) {
    for (NodeId n0 : schema.dim(0).nodes_at_level(levels[0])) {
      for (NodeId n1 : schema.dim(1).nodes_at_level(levels[1])) {
        ImpreciseRecord r = Region(schema, n0, n1);
        // Covered cells must be one contiguous run.
        int first = -1, last = -1;
        int count = 0;
        for (size_t i = 0; i < cells.size(); ++i) {
          if (RegionCovers(schema, r.node, cells[i].leaf)) {
            if (first < 0) first = static_cast<int>(i);
            last = static_cast<int>(i);
            ++count;
          }
        }
        ASSERT_GT(count, 0);
        EXPECT_EQ(count, last - first + 1)
            << "region (" << n0 << "," << n1 << ") not contiguous";
      }
    }
  }
}

TEST(SortSpecTest, EntryLessIsConsistentWithStartKeys) {
  StarSchema schema = MakeSchema();
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId a0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
    NodeId a1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
    NodeId b0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
    NodeId b1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
    ImpreciseRecord ra = Region(schema, a0, a1);
    ImpreciseRecord rb = Region(schema, b0, b1);
    // EntryLess must be a strict weak ordering consistent with the start
    // corner's canonical leaf order.
    int32_t sa0 = schema.dim(0).leaf_begin(a0), sa1 = schema.dim(1).leaf_begin(a1);
    int32_t sb0 = schema.dim(0).leaf_begin(b0), sb1 = schema.dim(1).leaf_begin(b1);
    bool expect = std::make_pair(sa0, sa1) < std::make_pair(sb0, sb1);
    EXPECT_EQ(cmp.EntryLess(ra, rb), expect);
  }
}

TEST(SummaryOrderTest, PreciseFirstThenByLevelVector) {
  StarSchema schema = MakeSchema();
  SummaryOrderLess less(&schema);
  FactRecord precise;
  precise.node[0] = schema.dim(0).leaf_node(3);
  precise.node[1] = schema.dim(1).leaf_node(3);
  precise.level[0] = precise.level[1] = 1;
  FactRecord imprecise = precise;
  imprecise.node[1] = schema.dim(1).AncestorAtLevel(imprecise.node[1], 2);
  imprecise.level[1] = 2;
  EXPECT_TRUE(less(precise, imprecise));
  EXPECT_FALSE(less(imprecise, precise));

  // Ties broken by fact id, so sorting is deterministic.
  FactRecord a = precise, b = precise;
  a.fact_id = 1;
  b.fact_id = 2;
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
}

TEST(SortSpecTest, AutomotiveChainSpecOrdersRealCells) {
  // Smoke the chain machinery against the big Table 2 hierarchies.
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  LevelVector v{};
  v.fill(1);
  v[0] = 2;
  v[3] = 3;
  SortSpec spec = SortSpec::ForChain(schema, {v});
  SpecComparator cmp(&schema, spec);
  CellRecord a{}, b{};
  a.leaf[3] = 0;
  b.leaf[3] = schema.dim(3).num_leaves() - 1;
  EXPECT_TRUE(cmp.CellLess(a, b));
  EXPECT_FALSE(cmp.CellLess(b, a));
}

// ---------------------------------------------------------------------------
// The normalized-key protocol on both sides of 64 bits: the automotive
// schema, whose canonical key is 10 + 8 + 6 + 10 = 34 bits, and a wide
// 6-dimension schema of fan-outs {50, 50} (12 leaf bits each, 72 in all),
// whose prefixes are truncated.

StarSchema MakeWideSchema() {
  std::vector<Hierarchy> dims;
  for (int d = 0; d < 6; ++d) {
    auto h = HierarchyBuilder::Uniform("W" + std::to_string(d), {50, 50});
    EXPECT_TRUE(h.ok());
    dims.push_back(std::move(h).value());
  }
  auto schema = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

/// Random records over a few leaves per dimension, so that equal keys and
/// equal truncated prefixes both occur. The candidate leaves of the last
/// dimension are adjacent: they differ only in the low bits that a
/// 72-bit key's prefix drops.
class RecordSource {
 public:
  RecordSource(const StarSchema* schema, uint64_t seed)
      : schema_(schema), rng_(seed) {
    for (int d = 0; d < schema->num_dims(); ++d) {
      const int32_t n = schema->dim(d).num_leaves();
      const bool last = d + 1 == schema->num_dims();
      const int32_t base = static_cast<int32_t>(rng_.Uniform(n - 3));
      for (int c = 0; c < 3; ++c) {
        leaves_[d][c] =
            last ? base + c : static_cast<int32_t>(rng_.Uniform(n));
      }
    }
  }

  CellRecord Cell() {
    CellRecord c;
    for (int d = 0; d < schema_->num_dims(); ++d) c.leaf[d] = Leaf(d);
    c.ccid = static_cast<int32_t>(rng_.Uniform(5)) - 1;
    return c;
  }

  /// A region: per dimension, the ancestor of a candidate leaf at a random
  /// level (the leaf itself, an inner node or ALL).
  ImpreciseRecord Entry() {
    ImpreciseRecord r;
    for (int d = 0; d < schema_->num_dims(); ++d) {
      const Hierarchy& h = schema_->dim(d);
      const int level = 1 + static_cast<int>(rng_.Uniform(h.num_levels()));
      r.node[d] = h.AncestorAtLevel(h.leaf_node(Leaf(d)), level);
      r.level[d] = static_cast<uint8_t>(level);
    }
    r.ccid = static_cast<int32_t>(rng_.Uniform(5)) - 1;
    r.table = static_cast<int16_t>(static_cast<int>(rng_.Uniform(4)) - 1);
    return r;
  }

  FactRecord Fact() {
    const ImpreciseRecord r = Entry();
    FactRecord f;
    std::copy(r.node, r.node + kMaxDims, f.node);
    std::copy(r.level, r.level + kMaxDims, f.level);
    f.fact_id = static_cast<FactId>(rng_.Uniform(4));
    return f;
  }

 private:
  int32_t Leaf(int d) { return leaves_[d][rng_.Uniform(3)]; }

  const StarSchema* schema_;
  Rng rng_;
  std::array<std::array<int32_t, 3>, kMaxDims> leaves_{};
};

/// Over every ordered pair: KeyPrefix(a) < KeyPrefix(b) implies less(a, b)
/// and, with a complete key, equal prefixes imply neither is less. Returns
/// the pairs whose prefixes tie while `less` orders them.
template <typename Less, typename T>
int ExpectPrefixRefinesLess(const Less& less, const std::vector<T>& recs,
                            bool complete, const char* what) {
  int ordered_ties = 0;
  for (const T& a : recs) {
    for (const T& b : recs) {
      const uint64_t pa = less.KeyPrefix(a);
      const uint64_t pb = less.KeyPrefix(b);
      if (pa < pb) {
        EXPECT_TRUE(less(a, b)) << what;
        EXPECT_FALSE(less(b, a)) << what;
      } else if (pa == pb && less(a, b)) {
        ++ordered_ties;
        EXPECT_FALSE(complete) << what << ": complete key tied";
      }
    }
  }
  return ordered_ties;
}

int CompareWords(const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

void CheckKeyProtocol(const StarSchema& schema, bool complete) {
  SCOPED_TRACE(complete ? "complete keys" : "truncated keys");
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  ASSERT_EQ(cmp.key_complete(), complete);
  RecordSource source(&schema, complete ? 17 : 29);
  std::vector<CellRecord> cells;
  std::vector<ImpreciseRecord> entries;
  std::vector<FactRecord> facts;
  for (int i = 0; i < 120; ++i) {
    cells.push_back(source.Cell());
    entries.push_back(source.Entry());
    facts.push_back(source.Fact());
  }
  const int cell_ties =
      ExpectPrefixRefinesLess(CellSpecLess(&cmp), cells, complete, "cell");
  const int entry_ties = ExpectPrefixRefinesLess(EntrySpecLess(&cmp), entries,
                                                 complete, "entry");
  ExpectPrefixRefinesLess(ComponentCellLess(4, &cmp), cells, complete,
                          "component cell");
  ExpectPrefixRefinesLess(ComponentEntryLess(4, 3, &cmp), entries,
                          complete, "component entry");
  // Facts tie-break on fact_id, which no prefix holds.
  ExpectPrefixRefinesLess(SummaryOrderLess(&schema), facts, false, "fact");
  if (!complete) {
    // The truncated-prefix fallback ran.
    EXPECT_GT(cell_ties, 0);
    EXPECT_GT(entry_ties, 0);
  }

  // Window keys: the full packed keys order cells and region starts as the
  // comparators do, their word 0 refines that order, and a region's start
  // and end keys bracket every cell it covers.
  const int n = cmp.key_words();
  auto cell_key = [&](const CellRecord& c) {
    std::vector<uint64_t> w(n);
    cmp.CellKey(c.leaf, w.data(), n);
    return w;
  };
  auto start_key = [&](const ImpreciseRecord& r) {
    std::vector<uint64_t> w(n);
    cmp.RegionStartKey(r, w.data(), n);
    return w;
  };
  auto end_key = [&](const ImpreciseRecord& r) {
    std::vector<uint64_t> w(n);
    cmp.RegionEndKey(r, w.data(), n);
    return w;
  };
  for (const CellRecord& a : cells) {
    for (const CellRecord& b : cells) {
      const int order = CompareWords(cell_key(a), cell_key(b));
      EXPECT_EQ(order < 0, cmp.CellLess(a, b));
      EXPECT_EQ(order > 0, cmp.CellLess(b, a));
      if (cell_key(a)[0] < cell_key(b)[0]) {
        EXPECT_LT(order, 0);
      }
    }
  }
  int covered = 0;
  for (const ImpreciseRecord& r : entries) {
    for (const ImpreciseRecord& o : entries) {
      const int order = CompareWords(start_key(r), start_key(o));
      EXPECT_EQ(order < 0, cmp.EntryLess(r, o));
    }
    for (const CellRecord& c : cells) {
      const int vs_start = CompareWords(start_key(r), cell_key(c));
      const int vs_end = CompareWords(end_key(r), cell_key(c));
      if (start_key(r)[0] < cell_key(c)[0]) {
        EXPECT_LT(vs_start, 0);
      }
      if (end_key(r)[0] > cell_key(c)[0]) {
        EXPECT_GT(vs_end, 0);
      }
      if (RegionCovers(schema, r.node, c.leaf)) {
        ++covered;
        EXPECT_LE(vs_start, 0);
        EXPECT_GE(vs_end, 0);
      }
    }
  }
  EXPECT_GT(covered, 0);
}

TEST(KeyProtocolTest, AutomotiveKeysAreComplete) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  EXPECT_EQ(cmp.key_bits(), 34);
  CheckKeyProtocol(schema, /*complete=*/true);
}

TEST(KeyProtocolTest, WideKeysFallBackPastTheirPrefix) {
  StarSchema schema = MakeWideSchema();
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  EXPECT_EQ(cmp.key_bits(), 72);
  EXPECT_EQ(cmp.key_words(), 2);
  CheckKeyProtocol(schema, /*complete=*/false);
}

/// Connected components of the allocation graph by brute force: imprecise
/// facts that overlap a common cell of C (a precise fact's cell) join.
int64_t BruteForceComponents(const StarSchema& schema,
                             const std::vector<FactRecord>& facts) {
  const int k = schema.num_dims();
  std::map<std::vector<int32_t>, bool> cells;
  std::vector<const FactRecord*> imprecise;
  for (const FactRecord& f : facts) {
    if (f.IsPrecise(k)) {
      std::vector<int32_t> leaf(k);
      for (int d = 0; d < k; ++d) {
        leaf[d] = schema.dim(d).leaf_begin(f.node[d]);
      }
      cells[leaf] = true;
    } else {
      imprecise.push_back(&f);
    }
  }
  UnionFind uf(static_cast<int32_t>(imprecise.size()));
  std::vector<bool> allocatable(imprecise.size(), false);
  for (const auto& [leaf, unused] : cells) {
    int32_t first = -1;
    for (size_t i = 0; i < imprecise.size(); ++i) {
      if (!RegionCovers(schema, imprecise[i]->node, leaf.data())) continue;
      allocatable[i] = true;
      if (first < 0) {
        first = static_cast<int32_t>(i);
      } else {
        uf.Union(first, static_cast<int32_t>(i));
      }
    }
  }
  std::vector<bool> seen(imprecise.size(), false);
  int64_t components = 0;
  for (size_t i = 0; i < imprecise.size(); ++i) {
    if (!allocatable[i]) continue;
    const int32_t root = uf.Find(static_cast<int32_t>(i));
    if (!seen[root]) {
      seen[root] = true;
      ++components;
    }
  }
  return components;
}

// End to end on truncated keys: the window engine and the sorters' prefix
// fallback give Transitive the components a brute-force labelling finds
// and the EDB Block computes.
TEST(KeyProtocolTest, WideSchemaTransitiveMatchesBlock) {
  StarSchema schema = MakeWideSchema();
  using Key = std::pair<FactId, std::array<int32_t, kMaxDims>>;
  std::map<Key, double> block_edb;
  for (AlgorithmKind algo :
       {AlgorithmKind::kBlock, AlgorithmKind::kTransitive}) {
    StorageEnv env(MakeTempDir(), 24);
    DatasetSpec spec;
    spec.num_facts = 3000;
    spec.imprecise_fraction = 0.4;
    spec.seed = 5;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    std::vector<FactRecord> raw;
    {
      auto cursor = facts.Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        raw.push_back(f);
      }
    }
    AllocationOptions options;
    options.algorithm = algo;
    options.epsilon = 0;
    options.max_iterations = 4;
    options.early_convergence = false;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    std::map<Key, double> edb;
    auto cursor = result.edb.Scan(env.pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      std::array<int32_t, kMaxDims> leaf{};
      std::copy(rec.leaf, rec.leaf + kMaxDims, leaf.begin());
      edb[{rec.fact_id, leaf}] = rec.weight;
    }
    if (algo == AlgorithmKind::kBlock) {
      block_edb = std::move(edb);
      EXPECT_FALSE(block_edb.empty());
      continue;
    }
    EXPECT_EQ(result.components.num_components,
              BruteForceComponents(schema, raw));
    ASSERT_EQ(edb.size(), block_edb.size());
    for (const auto& [key, weight] : block_edb) {
      ASSERT_NE(edb.find(key), edb.end());
      EXPECT_NEAR(edb.at(key), weight, 1e-9);
    }
  }
}

}  // namespace
}  // namespace iolap
