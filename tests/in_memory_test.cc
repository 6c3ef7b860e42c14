#include "alloc/in_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "bench/bench_util.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

using LeafKey = std::array<int32_t, kMaxDims>;

// ------------------------------------------------------------------------
// The edge builder against a brute-force enumeration: entry e's edges are
// exactly the cells RegionCovers accepts, in ascending cell index order,
// and the cells end up in canonical (lexicographic leaf) order.

LeafKey KeyOf(const CellRecord& c) {
  LeafKey key{};
  std::copy(c.leaf, c.leaf + kMaxDims, key.begin());
  return key;
}

void ExpectEdgesMatchBruteForce(const StarSchema& schema,
                                const std::vector<CellRecord>& cells,
                                const std::vector<ImpreciseRecord>& entries) {
  MemoryAllocator ma(&schema, cells, entries);
  const std::vector<CellRecord>& sorted = ma.cells();
  ASSERT_EQ(sorted.size(), cells.size());
  std::multiset<LeafKey> in, out;
  for (const CellRecord& c : cells) in.insert(KeyOf(c));
  for (const CellRecord& c : sorted) out.insert(KeyOf(c));
  EXPECT_EQ(in, out) << "cells are not a permutation of the input";
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(KeyOf(sorted[i - 1]), KeyOf(sorted[i])) << "at cell " << i;
  }

  ASSERT_EQ(ma.entries().size(), entries.size());
  int64_t total = 0;
  int64_t empty = 0;
  for (size_t e = 0; e < entries.size(); ++e) {
    std::vector<int32_t> want;
    for (size_t ci = 0; ci < sorted.size(); ++ci) {
      if (RegionCovers(schema, entries[e].node, sorted[ci].leaf)) {
        want.push_back(static_cast<int32_t>(ci));
      }
    }
    std::span<const int32_t> got = ma.edges(e);
    EXPECT_EQ(std::vector<int32_t>(got.begin(), got.end()), want)
        << "entry " << e;
    total += static_cast<int64_t>(want.size());
    if (want.empty()) ++empty;
  }
  EXPECT_EQ(static_cast<int64_t>(ma.edge_cells().size()), total);

  // Every cell has δ > 0, so exactly the entries covering no cell are
  // unallocatable, and each covered (entry, cell) pair yields one row.
  std::vector<EdbRecord> rows;
  int64_t unallocatable = 0;
  ma.EmitToVector(&rows, &unallocatable);
  EXPECT_EQ(unallocatable, empty);
  EXPECT_EQ(static_cast<int64_t>(rows.size()), total);
}

Result<StarSchema> MakeUniformSchema(int num_dims) {
  // Fan-outs vary per dimension so hierarchies have 2 to 4 levels.
  const std::vector<std::vector<int>> fanouts = {
      {3, 4}, {2, 3, 2}, {5}, {2, 2, 3}, {4, 3}, {3}};
  std::vector<Hierarchy> dims;
  for (int d = 0; d < num_dims; ++d) {
    IOLAP_ASSIGN_OR_RETURN(
        Hierarchy h, HierarchyBuilder::Uniform("D" + std::to_string(d),
                                               fanouts[d % fanouts.size()]));
    dims.push_back(std::move(h));
  }
  return StarSchema::Create(std::move(dims));
}

CellRecord RandomCell(const StarSchema& schema, std::mt19937_64& rng,
                      int32_t max_leaf0) {
  CellRecord c;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const int32_t n = d == 0 ? max_leaf0 : schema.dim(d).num_leaves();
    c.leaf[d] = static_cast<int32_t>(rng() % static_cast<uint64_t>(n));
  }
  c.delta0 = 1.0 + static_cast<double>(rng() % 7);
  c.delta_prev = c.delta0;
  return c;
}

/// Distinct cells in shuffled order; dimension 0 only uses its lower half
/// of leaves, so regions in the upper half cover nothing.
std::vector<CellRecord> RandomCells(const StarSchema& schema, size_t count,
                                    std::mt19937_64& rng) {
  const int32_t max_leaf0 = std::max(1, schema.dim(0).num_leaves() / 2);
  std::set<LeafKey> seen;
  std::vector<CellRecord> cells;
  for (size_t tries = 0; cells.size() < count && tries < count * 20; ++tries) {
    CellRecord c = RandomCell(schema, rng, max_leaf0);
    if (seen.insert(KeyOf(c)).second) cells.push_back(c);
  }
  std::shuffle(cells.begin(), cells.end(), rng);
  return cells;
}

/// An entry of summary table `table` at the given level vector, whose
/// region holds `anchor`'s leaves, or random leaves without an anchor.
ImpreciseRecord RandomEntry(const StarSchema& schema, const LevelVector& lv,
                            int16_t table, FactId id, std::mt19937_64& rng,
                            const CellRecord* anchor = nullptr) {
  ImpreciseRecord r;
  r.fact_id = id;
  r.measure = static_cast<double>(id % 11);
  r.table = table;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    const LeafId leaf =
        anchor != nullptr
            ? anchor->leaf[d]
            : static_cast<LeafId>(rng() %
                                  static_cast<uint64_t>(h.num_leaves()));
    r.node[d] = h.AncestorAtLevel(h.leaf_node(leaf), lv[d]);
    r.level[d] = lv[d];
  }
  return r;
}

LevelVector RandomLevels(const StarSchema& schema, std::mt19937_64& rng) {
  LevelVector lv{};
  for (int d = 0; d < schema.num_dims(); ++d) {
    lv[d] = static_cast<uint8_t>(
        1 + rng() % static_cast<uint64_t>(schema.dim(d).num_levels()));
  }
  return lv;
}

TEST(MemoryAllocatorEdges, MatchBruteForceAcrossDimsAndTables) {
  for (int k = 1; k <= kMaxDims; ++k) {
    IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeUniformSchema(k));
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("dims=" + std::to_string(k) +
                   " seed=" + std::to_string(seed));
      std::mt19937_64 rng(seed * 1000 + static_cast<uint64_t>(k));
      // Sparse and dense cell sets: runs of one cell and long runs.
      const size_t num_cells = seed % 2 == 1 ? 12 * k : 150 * k;
      std::vector<CellRecord> cells = RandomCells(schema, num_cells, rng);
      // Several summary tables, each a distinct level vector.
      std::vector<LevelVector> tables;
      for (int t = 0; t < 4; ++t) tables.push_back(RandomLevels(schema, rng));
      std::vector<ImpreciseRecord> entries;
      for (FactId id = 1; id <= 120; ++id) {
        const int16_t t = static_cast<int16_t>(rng() % tables.size());
        // Most regions hold a cell; the rest are placed at random.
        const CellRecord* anchor =
            id % 4 != 0 && !cells.empty() ? &cells[rng() % cells.size()]
                                          : nullptr;
        entries.push_back(RandomEntry(schema, tables[t], t, id, rng, anchor));
      }
      ExpectEdgesMatchBruteForce(schema, cells, entries);
    }
  }
}

TEST(MemoryAllocatorEdges, UnsortedDuplicateEmptyAndRootRegions) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeUniformSchema(3));
  std::mt19937_64 rng(7);
  std::vector<CellRecord> cells = RandomCells(schema, 150, rng);
  ASSERT_FALSE(std::is_sorted(
      cells.begin(), cells.end(),
      [](const CellRecord& a, const CellRecord& b) {
        return KeyOf(a) < KeyOf(b);
      }));

  std::vector<ImpreciseRecord> entries;
  FactId id = 1;
  // ALL in every dimension: covers every cell.
  LevelVector root{};
  for (int d = 0; d < 3; ++d) {
    root[d] = static_cast<uint8_t>(schema.dim(d).num_levels());
  }
  entries.push_back(RandomEntry(schema, root, 0, id++, rng));
  // ALL everywhere but the last dimension, and ALL only in dimension 0.
  LevelVector tail_pinned = root;
  tail_pinned[2] = 1;
  entries.push_back(RandomEntry(schema, tail_pinned, 1, id++, rng));
  LevelVector head_all{};
  head_all[0] = root[0];
  head_all[1] = 1;
  head_all[2] = 1;
  entries.push_back(RandomEntry(schema, head_all, 2, id++, rng));
  // Duplicate regions (distinct facts, identical nodes).
  for (int i = 0; i < 5; ++i) {
    ImpreciseRecord dup = RandomEntry(schema, RandomLevels(schema, rng), 3,
                                      id++, rng);
    entries.push_back(dup);
    dup.fact_id = id++;
    entries.push_back(dup);
  }
  // Regions in the upper half of dimension 0, where no cell lives.
  const Hierarchy& h0 = schema.dim(0);
  for (int i = 0; i < 3; ++i) {
    ImpreciseRecord none = RandomEntry(schema, head_all, 4, id++, rng);
    none.node[0] = h0.leaf_node(h0.num_leaves() - 1 - i);
    none.level[0] = 1;
    entries.push_back(none);
  }
  for (int i = 0; i < 40; ++i) {
    entries.push_back(RandomEntry(schema, RandomLevels(schema, rng), 5,
                                  id++, rng));
  }
  ExpectEdgesMatchBruteForce(schema, cells, entries);
}

TEST(MemoryAllocatorEdges, EmptyCellsOrEntries) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeUniformSchema(2));
  std::mt19937_64 rng(3);
  std::vector<ImpreciseRecord> entries;
  for (FactId id = 1; id <= 4; ++id) {
    entries.push_back(
        RandomEntry(schema, RandomLevels(schema, rng), 0, id, rng));
  }
  ExpectEdgesMatchBruteForce(schema, {}, entries);
  ExpectEdgesMatchBruteForce(schema, RandomCells(schema, 10, rng), {});
}

TEST(MemoryAllocatorEdges, LargeComponentImpreciseInFirstDimension) {
  // Every entry is imprecise in dimension 0 and precise elsewhere: the
  // shape that keeps whole stretches of cells under many regions.
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  std::mt19937_64 rng(11);
  std::vector<CellRecord> cells = RandomCells(schema, 3000, rng);
  std::vector<ImpreciseRecord> entries;
  for (FactId id = 1; id <= 1500; ++id) {
    // Anchor each region on a cell so most entries cover something.
    const CellRecord& anchor = cells[rng() % cells.size()];
    ImpreciseRecord r;
    r.fact_id = id;
    r.table = 0;
    for (int d = 0; d < schema.num_dims(); ++d) {
      const Hierarchy& h = schema.dim(d);
      const int level = d == 0 ? 2 + static_cast<int>(id % 2) : 1;
      r.node[d] = h.AncestorAtLevel(h.leaf_node(anchor.leaf[d]), level);
      r.level[d] = static_cast<uint8_t>(level);
    }
    entries.push_back(r);
  }
  ExpectEdgesMatchBruteForce(schema, cells, entries);
}

// ------------------------------------------------------------------------
// Golden EDB: Transitive's output bytes for a fixed input, pinned to the
// FNV-1a digest recorded before the box-descent edge builder replaced the
// open-list sweep. Any change to edge order or floating-point summation
// order shows up here.

TEST(MemoryAllocatorGolden, TransitiveEdbDigestIsPinned) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  const DatasetSpec spec = AutomotiveLikeSpec(20'000, 1);
  // A 2% pool: 14,000 cells and 6,000 imprecise facts need 310 pages.
  const int64_t cells = spec.num_facts * 7 / 10;
  const int64_t imprecise = spec.num_facts - cells;
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  const int64_t pages = ((cells + cell_rpp - 1) / cell_rpp +
                         (imprecise + imp_rpp - 1) / imp_rpp) /
                        50;
  ASSERT_EQ(pages, 6);
  StorageEnv env(MakeTempDir(), pages);
  IOLAP_ASSERT_OK_AND_ASSIGN(TypedFile<FactRecord> facts,
                             GenerateFacts(env, schema, spec));
  AllocationOptions options;
  ASSERT_EQ(options.algorithm, AlgorithmKind::kTransitive);
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));

  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  int64_t rows = 0;
  auto cursor = result.edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_ASSERT_OK(cursor.Next(&rec));
    const auto* bytes = reinterpret_cast<const unsigned char*>(&rec);
    for (size_t i = 0; i < sizeof(rec); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
    ++rows;
  }
  EXPECT_EQ(rows, 29'028);
  EXPECT_EQ(h, 0x2491aeea18175de7ULL);
}

}  // namespace
}  // namespace iolap
