#include "alloc/preprocess.h"

#include <algorithm>
#include <cstring>

#include "model/sort_key.h"
#include "storage/external_sort.h"

namespace iolap {

namespace {

using LeafKey = std::array<int32_t, kMaxDims>;

/// Leaf-lexicographic (canonical) comparison over the first `k` dims.
int CompareLeaves(const int32_t* a, const int32_t* b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a[d] != b[d]) return a[d] < b[d] ? -1 : 1;
  }
  return 0;
}

/// Index of the last fence <= key, or -1 if every fence exceeds key.
int64_t LastFenceLeq(const std::vector<LeafKey>& fences, const LeafKey& key,
                     int num_dims) {
  int64_t lo = 0, hi = static_cast<int64_t>(fences.size());
  while (lo < hi) {  // invariant: fences[lo-1] <= key < fences[hi]
    int64_t mid = (lo + hi) / 2;
    if (CompareLeaves(key.data(), fences[mid].data(), num_dims) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;
}

/// Streams region-cell stubs for the kImpreciseUnion domain.
Status EnumerateRegionCells(const StarSchema& schema,
                            const FactRecord& fact, int64_t* budget,
                            TypedFile<CellRecord>::Appender* out) {
  const int k = schema.num_dims();
  LeafKey lo{}, hi{}, cur{};
  for (int d = 0; d < k; ++d) {
    lo[d] = schema.dim(d).leaf_begin(fact.node[d]);
    hi[d] = schema.dim(d).leaf_end(fact.node[d]);
    cur[d] = lo[d];
  }
  while (true) {
    if (--(*budget) < 0) {
      return Status::ResourceExhausted(
          "kImpreciseUnion cell domain exceeds max_domain_cells");
    }
    CellRecord cell;
    std::memcpy(cell.leaf, cur.data(), sizeof(cell.leaf));
    IOLAP_RETURN_IF_ERROR(out->Append(cell));
    int d = k - 1;
    while (d >= 0 && ++cur[d] == hi[d]) {
      cur[d] = lo[d];
      --d;
    }
    if (d < 0) break;
  }
  return Status::Ok();
}

}  // namespace

Result<PreparedDataset> PrepareDataset(StorageEnv& env,
                                       const StarSchema& schema,
                                       const TypedFile<FactRecord>* facts,
                                       const AllocationOptions& options) {
  const int k = schema.num_dims();
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  DiskManager& disk = env.disk();
  BufferPool& pool = env.pool();

  PreparedDataset out;
  IOLAP_ASSIGN_OR_RETURN(out.cells, TypedFile<CellRecord>::Create(disk, "cells"));
  IOLAP_ASSIGN_OR_RETURN(out.imprecise,
                         TypedFile<ImpreciseRecord>::Create(disk, "imprecise"));
  IOLAP_ASSIGN_OR_RETURN(out.precise_edb,
                         TypedFile<EdbRecord>::Create(disk, "precise_edb"));

  // kImpreciseUnion: every cell of every imprecise region, enumerated from
  // the unsorted facts and sorted canonically for the scan to merge into C.
  TypedFile<CellRecord> stubs;
  const bool union_domain = options.domain == CellDomain::kImpreciseUnion;
  if (union_domain) {
    IOLAP_ASSIGN_OR_RETURN(stubs,
                           TypedFile<CellRecord>::Create(disk, "cell_stubs"));
    {
      auto appender = stubs.MakeAppender(pool);
      int64_t budget = options.max_domain_cells;
      auto cursor = facts->Scan(pool);
      FactRecord fact;
      while (!cursor.done()) {
        IOLAP_RETURN_IF_ERROR(cursor.Next(&fact));
        if (fact.IsPrecise(k)) continue;
        IOLAP_RETURN_IF_ERROR(
            EnumerateRegionCells(schema, fact, &budget, &appender));
      }
      appender.Close();
    }
    SpecComparator canonical(&schema, SortSpec::Canonical(schema));
    ExternalSorter<CellRecord> sorter(&disk, &pool, env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(sorter.Sort(&stubs, CellSpecLess(&canonical)));
  }

  // One sort of D into summary-table order (the "special sort") whose final
  // merge feeds one scan; nothing the scan writes is read back. The precise
  // prefix (level vector all ones sorts first) aggregates into C in
  // canonical order, merged with the sorted stubs, so C and its page fences
  // are final before the first imprecise fact arrives. Each imprecise fact
  // then gets its first/last bounds and joins its table's partition sweep
  // (Definition 9, Section 4.2) as it is appended to its page-aligned
  // summary table.
  {
    auto cell_appender = out.cells.MakeAppender(pool);
    auto imp_appender = out.imprecise.MakeAppender(pool);
    auto edb_appender = out.precise_edb.MakeAppender(pool);
    auto stub_cursor = stubs.Scan(pool);
    std::vector<LeafKey> fences;  // first leaf key of every page of C
    CellRecord cell;              // the open cell of C
    bool have_cell = false;
    bool cells_done = false;
    // Partition sweep of the open summary table: the most entries in one
    // block of chained [first, last] intervals.
    int64_t block_count = 0, block_max_last = -2, partition = 0;

    auto flush_cell = [&]() -> Status {
      if (!have_cell) return Status::Ok();
      if (out.cells.size() % cell_rpp == 0) {
        LeafKey fence{};
        std::memcpy(fence.data(), cell.leaf, sizeof(cell.leaf));
        fences.push_back(fence);
      }
      cell.delta_prev = cell.delta0;
      have_cell = false;
      return cell_appender.Append(cell);
    };
    // Makes `leaf` the open cell of C unless it already is.
    auto open_cell = [&](const int32_t* leaf) -> Status {
      if (have_cell && CompareLeaves(cell.leaf, leaf, k) == 0) {
        return Status::Ok();
      }
      IOLAP_RETURN_IF_ERROR(flush_cell());
      cell = CellRecord{};
      std::memcpy(cell.leaf, leaf, sizeof(cell.leaf));
      cell.delta0 = options.DeltaBase();
      have_cell = true;
      return Status::Ok();
    };
    // Opens the stub cells ordered before `leaf` (all that are left when
    // `leaf` is null).
    auto open_stubs_before = [&](const int32_t* leaf) -> Status {
      CellRecord stub;
      while (!stub_cursor.done()) {
        IOLAP_RETURN_IF_ERROR(stub_cursor.Read(&stub));
        if (leaf != nullptr && CompareLeaves(stub.leaf, leaf, k) >= 0) break;
        IOLAP_RETURN_IF_ERROR(open_cell(stub.leaf));
        stub_cursor.Advance();
      }
      return Status::Ok();
    };
    auto finish_cells = [&]() -> Status {
      IOLAP_RETURN_IF_ERROR(open_stubs_before(nullptr));
      IOLAP_RETURN_IF_ERROR(flush_cell());
      cell_appender.Close();
      cells_done = true;
      return Status::Ok();
    };
    auto close_table = [&]() {
      SummaryTableInfo& table = out.tables.back();
      table.end = out.imprecise.size();
      table.partition_records = std::max(partition, block_count);
      table.partition_pages = std::max<int64_t>(
          1, (table.partition_records + imp_rpp - 1) / imp_rpp);
    };

    auto scan = [&](const FactRecord& fact) -> Status {
      if (fact.IsPrecise(k)) {
        ++out.num_precise_facts;
        int32_t leaf[kMaxDims] = {};
        for (int d = 0; d < k; ++d) {
          leaf[d] = schema.dim(d).leaf_begin(fact.node[d]);
        }
        IOLAP_RETURN_IF_ERROR(open_stubs_before(leaf));
        IOLAP_RETURN_IF_ERROR(open_cell(leaf));
        cell.delta0 += options.DeltaContribution(fact);
        EdbRecord edb;
        edb.fact_id = fact.fact_id;
        edb.measure = fact.measure;
        edb.weight = 1.0;
        std::memcpy(edb.leaf, leaf, sizeof(edb.leaf));
        return edb_appender.Append(edb);
      }

      if (!cells_done) IOLAP_RETURN_IF_ERROR(finish_cells());
      ++out.num_imprecise_facts;
      LevelVector levels = fact.level_vector();
      if (out.tables.empty() || levels != out.tables.back().levels) {
        if (!out.tables.empty()) close_table();
        // Pad to a page boundary with explicit sentinels (fact_id = -1,
        // precise region, ccid = -1) so that whole-file sorts — Transitive's
        // component sort — can push them harmlessly to the end, while range
        // scans skip them via the segment bounds.
        ImpreciseRecord sentinel;
        sentinel.fact_id = -1;
        for (int d = 0; d < k; ++d) {
          sentinel.node[d] = schema.dim(d).leaf_node(0);
          sentinel.level[d] = 1;
        }
        while (out.imprecise.size() % imp_rpp != 0) {
          IOLAP_RETURN_IF_ERROR(imp_appender.Append(sentinel));
        }
        SummaryTableInfo table;
        table.levels = levels;
        table.begin = out.imprecise.size();
        out.tables.push_back(table);
        block_count = 0;
        block_max_last = -2;
        partition = 0;
      }
      ImpreciseRecord rec;
      rec.fact_id = fact.fact_id;
      rec.measure = fact.measure;
      std::memcpy(rec.node, fact.node, sizeof(rec.node));
      std::memcpy(rec.level, fact.level, sizeof(rec.level));
      rec.table = static_cast<int16_t>(out.tables.size() - 1);

      // Conservative first/last bounds from the page fences of C.
      LeafKey start{}, end{};
      for (int d = 0; d < k; ++d) {
        start[d] = schema.dim(d).leaf_begin(fact.node[d]);
        end[d] = schema.dim(d).leaf_end(fact.node[d]) - 1;
      }
      const int64_t first_page = LastFenceLeq(fences, start, k);
      const int64_t last_page = LastFenceLeq(fences, end, k);
      if (last_page >= 0) {
        rec.first = std::max<int64_t>(0, first_page) * cell_rpp;
        rec.last = std::min(out.cells.size() - 1,
                            last_page * cell_rpp + cell_rpp - 1);
      } else {
        rec.first = 0;
        rec.last = -1;  // region entirely before C; certainly empty
      }

      const int64_t l = std::max(rec.last, rec.first);
      if (rec.first > block_max_last) {
        partition = std::max(partition, block_count);
        block_count = 1;
        block_max_last = l;
      } else {
        ++block_count;
        block_max_last = std::max(block_max_last, l);
      }
      return imp_appender.Append(rec);
    };

    ExternalSorter<FactRecord> sorter(&disk, &pool, env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(
        sorter.SortInto(*facts, SummaryOrderLess(&schema), scan));
    if (!cells_done) IOLAP_RETURN_IF_ERROR(finish_cells());
    if (!out.tables.empty()) close_table();
    imp_appender.Close();
    edb_appender.Close();
  }

  if (union_domain) {
    IOLAP_RETURN_IF_ERROR(pool.EvictFile(stubs.file_id()));
    IOLAP_RETURN_IF_ERROR(disk.DeleteFile(stubs.file_id()));
  }
  return out;
}

}  // namespace iolap
