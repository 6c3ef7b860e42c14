#include "alloc/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "model/sort_key.h"
#include "storage/external_sort.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

class PreprocessTest : public ::testing::Test {
 protected:
  PreprocessTest() : env_(MakeTempDir(), 256) {}
  StorageEnv env_;
};

TEST_F(PreprocessTest, PaperExampleSummaryTables) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             MakePaperExampleFacts(env_, schema));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env_, schema, &facts, options));

  EXPECT_EQ(data.num_precise_facts, 5);
  EXPECT_EQ(data.num_imprecise_facts, 9);
  // p1..p5 map to 5 distinct cells.
  EXPECT_EQ(data.cells.size(), 5);
  // Figure 3: exactly 5 imprecise summary tables.
  ASSERT_EQ(data.tables.size(), 5u);

  // The level vectors present must be exactly those of Figure 3.
  std::set<std::pair<int, int>> vectors;
  int64_t imprecise_total = 0;
  for (const SummaryTableInfo& t : data.tables) {
    vectors.insert({t.levels[0], t.levels[1]});
    imprecise_total += t.size();
    EXPECT_EQ(t.begin % TypedFile<ImpreciseRecord>::kRecordsPerPage, 0)
        << "summary table segment not page-aligned";
    EXPECT_GT(t.partition_records, 0);
    EXPECT_GE(t.partition_pages, 1);
  }
  EXPECT_EQ(imprecise_total, 9);
  std::set<std::pair<int, int>> expected = {
      {1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 1}};
  EXPECT_EQ(vectors, expected);

  // δ(c) = 1 for every cell under EM-Count (each precise fact is unique).
  for (int64_t i = 0; i < data.cells.size(); ++i) {
    IOLAP_ASSERT_OK_AND_ASSIGN(CellRecord c, data.cells.Get(env_.pool(), i));
    EXPECT_EQ(c.delta0, 1.0);
    EXPECT_EQ(c.delta_prev, 1.0);
  }

  // Precise EDB: one row of weight 1 per precise fact.
  EXPECT_EQ(data.precise_edb.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    IOLAP_ASSERT_OK_AND_ASSIGN(EdbRecord e,
                               data.precise_edb.Get(env_.pool(), i));
    EXPECT_EQ(e.weight, 1.0);
    EXPECT_GE(e.fact_id, 1);
    EXPECT_LE(e.fact_id, 5);
  }
}

TEST_F(PreprocessTest, CellsAggregateDuplicatePreciseFacts) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             TypedFile<FactRecord>::Create(env_.disk(), "f"));
  // Three facts in the same cell, one in another.
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ma, schema.dim(0).FindNode("MA"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ny, schema.dim(0).FindNode("NY"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId civic, schema.dim(1).FindNode("Civic"));
  for (int i = 0; i < 4; ++i) {
    FactRecord f;
    f.fact_id = i + 1;
    f.measure = 10 * (i + 1);
    f.node[0] = i < 3 ? ma : ny;
    f.node[1] = civic;
    f.level[0] = f.level[1] = 1;
    IOLAP_ASSERT_OK(facts.Append(env_.pool(), f));
  }
  AllocationOptions options;
  options.policy = PolicyKind::kMeasure;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env_, schema, &facts, options));
  ASSERT_EQ(data.cells.size(), 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(CellRecord c0, data.cells.Get(env_.pool(), 0));
  IOLAP_ASSERT_OK_AND_ASSIGN(CellRecord c1, data.cells.Get(env_.pool(), 1));
  // Canonical order: MA(leaf 0) before NY(leaf 1).
  EXPECT_EQ(c0.delta0, 10 + 20 + 30);
  EXPECT_EQ(c1.delta0, 40);
  EXPECT_EQ(data.precise_edb.size(), 4);
  EXPECT_TRUE(data.tables.empty());
}

std::vector<CellRecord> ReadCells(StorageEnv& env,
                                  const TypedFile<CellRecord>& file) {
  std::vector<CellRecord> cells;
  auto cursor = file.Scan(env.pool());
  CellRecord c;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&c).ok());
    cells.push_back(c);
  }
  return cells;
}

bool LeavesLess(const int32_t* a, const int32_t* b, int k) {
  return std::lexicographical_compare(a, a + k, b, b + k);
}

// Index of the last page of C whose first key is <= `key`, or -1: a
// linear search over the page-first keys of `cells`.
int64_t LastPageStartingAtOrBefore(const std::vector<CellRecord>& cells,
                                   const int32_t* key, int k) {
  const int64_t rpp = TypedFile<CellRecord>::kRecordsPerPage;
  int64_t page = -1;
  for (int64_t i = 0; i < static_cast<int64_t>(cells.size()); i += rpp) {
    if (LeavesLess(key, cells[i].leaf, k)) break;
    page = i / rpp;
  }
  return page;
}

// C is strictly increasing in canonical order, and every entry's
// first/last and every table's partition size equal a brute-force
// recomputation from the first key of each page of C (the Section 4.2
// sweep), for both cell domains. In the union domain C is exactly the
// precise cells plus every cell of every imprecise region.
TEST_F(PreprocessTest, CellsAreCanonicallySorted) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  const int k = schema.num_dims();
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  for (CellDomain domain :
       {CellDomain::kPreciseCells, CellDomain::kImpreciseUnion}) {
    SCOPED_TRACE(domain == CellDomain::kPreciseCells ? "precise cells"
                                                     : "imprecise union");
    StorageEnv env(MakeTempDir(), 64);
    DatasetSpec spec;
    spec.num_facts = 5000;
    spec.seed = 3;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    std::set<std::vector<int32_t>> expected_cells;
    {
      auto cursor = facts.Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        if (!f.IsPrecise(k) && domain == CellDomain::kPreciseCells) continue;
        // Every cell of the region (one cell for a precise fact).
        std::vector<int32_t> lo(k), hi(k), cur(k);
        for (int d = 0; d < k; ++d) {
          lo[d] = cur[d] = schema.dim(d).leaf_begin(f.node[d]);
          hi[d] = schema.dim(d).leaf_end(f.node[d]);
        }
        while (true) {
          expected_cells.insert(cur);
          int d = k - 1;
          while (d >= 0 && ++cur[d] == hi[d]) {
            cur[d] = lo[d];
            --d;
          }
          if (d < 0) break;
        }
      }
    }
    AllocationOptions options;
    options.domain = domain;
    IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                               PrepareDataset(env, schema, &facts, options));
    std::vector<CellRecord> cells = ReadCells(env, data.cells);
    ASSERT_EQ(cells.size(), expected_cells.size());
    ASSERT_GT(cells.size(), static_cast<size_t>(2 * cell_rpp));
    auto expected = expected_cells.begin();
    for (size_t i = 0; i < cells.size(); ++i, ++expected) {
      ASSERT_TRUE(std::equal(expected->begin(), expected->end(),
                             cells[i].leaf))
          << "cell " << i << " out of order, duplicated or missing";
    }

    ASSERT_FALSE(data.tables.empty());
    for (const SummaryTableInfo& table : data.tables) {
      int64_t block_count = 0, block_max_last = -2, partition = 0;
      auto cursor = data.imprecise.Scan(env.pool(), table.begin, table.end);
      ImpreciseRecord rec;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&rec));
        int32_t start[kMaxDims] = {}, end[kMaxDims] = {};
        for (int d = 0; d < k; ++d) {
          start[d] = schema.dim(d).leaf_begin(rec.node[d]);
          end[d] = schema.dim(d).leaf_end(rec.node[d]) - 1;
        }
        int64_t first_page = LastPageStartingAtOrBefore(cells, start, k);
        int64_t last_page = LastPageStartingAtOrBefore(cells, end, k);
        int64_t first = 0, last = -1;
        if (last_page >= 0) {
          first = std::max<int64_t>(first_page, 0) * cell_rpp;
          last = std::min<int64_t>(static_cast<int64_t>(cells.size()) - 1,
                                   (last_page + 1) * cell_rpp - 1);
        }
        ASSERT_EQ(rec.first, first) << "fact " << rec.fact_id;
        ASSERT_EQ(rec.last, last) << "fact " << rec.fact_id;
        if (first > block_max_last) {
          partition = std::max(partition, block_count);
          block_count = 1;
          block_max_last = std::max(last, first);
        } else {
          ++block_count;
          block_max_last = std::max(block_max_last, std::max(last, first));
        }
      }
      partition = std::max(partition, block_count);
      EXPECT_EQ(table.partition_records, partition);
      EXPECT_EQ(table.partition_pages, (partition + imp_rpp - 1) / imp_rpp);
    }
  }
}

// On an input that spills the sort budget, preprocessing reads nothing but
// what the fact sort reads, plus (kImpreciseUnion) one pass over D to
// enumerate the stub cells and the stub sort's own reads. No page of C, I
// or the precise EDB is read back, and D is left as it was.
TEST_F(PreprocessTest, ReadsOnlyWhatTheSortsRead) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  const int k = schema.num_dims();
  const int64_t kBudget = 16;
  for (CellDomain domain :
       {CellDomain::kPreciseCells, CellDomain::kImpreciseUnion}) {
    SCOPED_TRACE(domain == CellDomain::kPreciseCells ? "precise cells"
                                                     : "imprecise union");
    StorageEnv env(MakeTempDir(), kBudget);
    DatasetSpec spec;
    spec.num_facts = 4000;
    spec.seed = 5;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    ASSERT_GT(facts.size_in_pages(), 2 * kBudget);
    IOLAP_ASSERT_OK(env.pool().EvictFile(facts.file_id()));
    std::vector<FactRecord> before;
    {
      auto cursor = facts.Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        before.push_back(f);
      }
    }
    IOLAP_ASSERT_OK(env.pool().EvictFile(facts.file_id()));

    // What the sorts read on their own, with the same budget.
    int64_t sort_reads = 0;
    {
      const int64_t r0 = env.disk().stats().page_reads;
      ExternalSorter<FactRecord> sorter(&env.disk(), &env.pool(), kBudget);
      IOLAP_ASSERT_OK(sorter.SortInto(facts, SummaryOrderLess(&schema),
                                      [](const FactRecord&) {
                                        return Status::Ok();
                                      }));
      sort_reads = env.disk().stats().page_reads - r0;
    }
    if (domain == CellDomain::kImpreciseUnion) {
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto stubs, TypedFile<CellRecord>::Create(env.disk(), "stubs"));
      for (const FactRecord& f : before) {
        if (f.IsPrecise(k)) continue;
        CellRecord cell;
        int64_t n = 1;
        for (int d = 0; d < k; ++d) {
          n *= schema.dim(d).leaf_end(f.node[d]) -
               schema.dim(d).leaf_begin(f.node[d]);
        }
        for (int64_t i = 0; i < n; ++i) {
          IOLAP_ASSERT_OK(stubs.Append(env.pool(), cell));
        }
      }
      ASSERT_GT(stubs.size_in_pages(), kBudget);
      const int64_t r0 = env.disk().stats().page_reads;
      SpecComparator canonical(&schema, SortSpec::Canonical(schema));
      ExternalSorter<CellRecord> sorter(&env.disk(), &env.pool(), kBudget);
      IOLAP_ASSERT_OK(sorter.Sort(&stubs, CellSpecLess(&canonical)));
      // The stub pre-pass over D, the stub sort, and the scan's one read
      // of the sorted stubs.
      sort_reads += facts.size_in_pages() +
                    (env.disk().stats().page_reads - r0) +
                    stubs.size_in_pages();
      IOLAP_ASSERT_OK(env.pool().EvictFile(stubs.file_id()));
      IOLAP_ASSERT_OK(env.disk().DeleteFile(stubs.file_id()));
    }

    std::map<FileId, int64_t> reads_by_file;
    env.disk().SetFaultInjector([&](char op, FileId file, PageId) {
      if (op == 'r') ++reads_by_file[file];
      return Status::Ok();
    });
    const int64_t r0 = env.disk().stats().page_reads;
    AllocationOptions options;
    options.domain = domain;
    Result<PreparedDataset> data = PrepareDataset(env, schema, &facts, options);
    const int64_t prep_reads = env.disk().stats().page_reads - r0;
    env.disk().SetFaultInjector(nullptr);
    IOLAP_ASSERT_OK(data.status());

    EXPECT_EQ(prep_reads, sort_reads);
    EXPECT_EQ(reads_by_file.count(data->cells.file_id()), 0u);
    EXPECT_EQ(reads_by_file.count(data->imprecise.file_id()), 0u);
    EXPECT_EQ(reads_by_file.count(data->precise_edb.file_id()), 0u);

    std::vector<FactRecord> after;
    {
      auto cursor = facts.Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        after.push_back(f);
      }
    }
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          before.size() * sizeof(FactRecord)),
              0)
        << "preprocessing modified its input";
  }
}

TEST_F(PreprocessTest, FirstLastBoundsAreConservative) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  DatasetSpec spec;
  spec.num_facts = 3000;
  spec.seed = 11;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env_, schema, spec));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env_, schema, &facts, options));

  // Load all cells for a brute-force check.
  std::vector<CellRecord> cells;
  {
    auto cursor = data.cells.Scan(env_.pool());
    CellRecord c;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&c));
      cells.push_back(c);
    }
  }
  for (const SummaryTableInfo& table : data.tables) {
    auto cursor = data.imprecise.Scan(env_.pool(), table.begin, table.end);
    ImpreciseRecord rec;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      // True first/last covered cell indexes.
      int64_t true_first = -1, true_last = -1;
      for (size_t i = 0; i < cells.size(); ++i) {
        if (RegionCovers(schema, rec.node, cells[i].leaf)) {
          if (true_first < 0) true_first = static_cast<int64_t>(i);
          true_last = static_cast<int64_t>(i);
        }
      }
      if (true_first >= 0) {
        EXPECT_LE(rec.first, true_first);
        EXPECT_GE(rec.last, true_last);
      }
    }
  }
}

TEST_F(PreprocessTest, UniformSeedsEveryCellWithOne) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             MakePaperExampleFacts(env_, schema));
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env_, schema, &facts, options));
  for (int64_t i = 0; i < data.cells.size(); ++i) {
    IOLAP_ASSERT_OK_AND_ASSIGN(CellRecord c, data.cells.Get(env_.pool(), i));
    EXPECT_EQ(c.delta0, 1.0);  // base 1, no count/measure contribution
  }
}

TEST_F(PreprocessTest, ImpreciseUnionDomainCoversRegions) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             MakePaperExampleFacts(env_, schema));
  AllocationOptions options;
  options.domain = CellDomain::kImpreciseUnion;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env_, schema, &facts, options));
  // The 9 imprecise facts' regions plus 5 precise cells: p11/p12 span ALL of
  // Location so C must include cells like (TX, Civic) with δ = 0.
  EXPECT_GT(data.cells.size(), 5);
  int64_t zero_delta = 0;
  auto cursor = data.cells.Scan(env_.pool());
  CellRecord c;
  while (!cursor.done()) {
    IOLAP_ASSERT_OK(cursor.Next(&c));
    if (c.delta0 == 0) ++zero_delta;
  }
  EXPECT_GT(zero_delta, 0);
}

TEST_F(PreprocessTest, ImpreciseUnionRespectsBudget) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             MakePaperExampleFacts(env_, schema));
  AllocationOptions options;
  options.domain = CellDomain::kImpreciseUnion;
  options.max_domain_cells = 3;
  Result<PreparedDataset> data = PrepareDataset(env_, schema, &facts, options);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace iolap
