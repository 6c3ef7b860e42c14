#include "alloc/preprocess.h"

#include <algorithm>
#include <cstring>

#include "model/sort_key.h"
#include "storage/external_sort.h"

namespace iolap {

namespace {

using LeafKey = std::array<int32_t, kMaxDims>;

LeafKey RegionStartKey(const StarSchema& schema, const ImpreciseRecord& r) {
  LeafKey k{};
  for (int d = 0; d < schema.num_dims(); ++d) {
    k[d] = schema.dim(d).leaf_begin(r.node[d]);
  }
  return k;
}

LeafKey RegionEndKey(const StarSchema& schema, const ImpreciseRecord& r) {
  LeafKey k{};
  for (int d = 0; d < schema.num_dims(); ++d) {
    k[d] = schema.dim(d).leaf_end(r.node[d]) - 1;
  }
  return k;
}

bool LeafKeyLess(const LeafKey& a, const LeafKey& b, int num_dims) {
  for (int d = 0; d < num_dims; ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return false;
}

/// Index of the last fence <= key, or -1 if every fence exceeds key.
int64_t LastFenceLeq(const std::vector<LeafKey>& fences, const LeafKey& key,
                     int num_dims) {
  int64_t lo = 0, hi = static_cast<int64_t>(fences.size());
  while (lo < hi) {  // invariant: fences[lo-1] <= key < fences[hi]
    int64_t mid = (lo + hi) / 2;
    if (LeafKeyLess(key, fences[mid], num_dims)) {
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

bool SameLeaves(const int32_t* a, const int32_t* b, int k) {
  return std::memcmp(a, b, static_cast<size_t>(k) * sizeof(int32_t)) == 0;
}

}  // namespace

Result<PreparedDataset> PrepareDataset(StorageEnv& env,
                                       const StarSchema& schema,
                                       TypedFile<FactRecord>* facts,
                                       const AllocationOptions& options) {
  const int k = schema.num_dims();
  DiskManager& disk = env.disk();
  BufferPool& pool = env.pool();

  // Step 1: sort D into summary-table order (one "special sort").
  {
    ExternalSorter<FactRecord> sorter(&disk, &pool, env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(sorter.Sort(facts, SummaryOrderLess(&schema)));
  }

  PreparedDataset out;
  IOLAP_ASSIGN_OR_RETURN(out.cells, TypedFile<CellRecord>::Create(disk, "cells"));
  IOLAP_ASSIGN_OR_RETURN(out.imprecise,
                         TypedFile<ImpreciseRecord>::Create(disk, "imprecise"));
  IOLAP_ASSIGN_OR_RETURN(out.precise_edb,
                         TypedFile<EdbRecord>::Create(disk, "precise_edb"));

  // Optional stub file for the kImpreciseUnion cell domain.
  TypedFile<CellRecord> stubs;
  const bool union_domain = options.domain == CellDomain::kImpreciseUnion;
  if (union_domain) {
    IOLAP_ASSIGN_OR_RETURN(stubs,
                           TypedFile<CellRecord>::Create(disk, "cell_stubs"));
  }
  int64_t stub_budget = options.max_domain_cells;

  // Step 2: single scan of the sorted facts. The precise prefix (level
  // vector all-ones sorts first) aggregates into C in canonical order; the
  // imprecise tail splits into page-aligned summary tables.
  {
    auto cell_appender = out.cells.MakeAppender(pool);
    auto imp_appender = out.imprecise.MakeAppender(pool);
    auto edb_appender = out.precise_edb.MakeAppender(pool);
    auto stub_appender = stubs.MakeAppender(pool);

    CellRecord cur_cell;
    bool have_cell = false;
    LevelVector cur_levels{};
    bool in_imprecise = false;

    auto flush_cell = [&]() -> Status {
      if (!have_cell) return Status::Ok();
      cur_cell.delta_prev = cur_cell.delta0;
      IOLAP_RETURN_IF_ERROR(cell_appender.Append(cur_cell));
      have_cell = false;
      return Status::Ok();
    };

    auto cursor = facts->Scan(pool);
    FactRecord fact;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&fact));
      if (fact.IsPrecise(k)) {
        ++out.num_precise_facts;
        int32_t leaf[kMaxDims] = {};
        for (int d = 0; d < k; ++d) {
          leaf[d] = schema.dim(d).leaf_begin(fact.node[d]);
        }
        if (!have_cell || !SameLeaves(cur_cell.leaf, leaf, k)) {
          IOLAP_RETURN_IF_ERROR(flush_cell());
          cur_cell = CellRecord{};
          std::memcpy(cur_cell.leaf, leaf, sizeof(cur_cell.leaf));
          cur_cell.delta0 = options.DeltaBase();
          have_cell = true;
        }
        cur_cell.delta0 += options.DeltaContribution(fact);
        EdbRecord edb;
        edb.fact_id = fact.fact_id;
        edb.measure = fact.measure;
        edb.weight = 1.0;
        std::memcpy(edb.leaf, leaf, sizeof(edb.leaf));
        IOLAP_RETURN_IF_ERROR(edb_appender.Append(edb));
        continue;
      }

      // First imprecise fact: close out the cell stream.
      if (!in_imprecise) {
        IOLAP_RETURN_IF_ERROR(flush_cell());
        in_imprecise = true;
      }
      ++out.num_imprecise_facts;
      LevelVector levels = fact.level_vector();
      if (out.tables.empty() || levels != cur_levels) {
        if (!out.tables.empty()) {
          out.tables.back().end = out.imprecise.size();
        }
        // Pad to a page boundary with explicit sentinels (fact_id = -1,
        // precise region, ccid = -1) so that whole-file sorts — Transitive's
        // component sort — can push them harmlessly to the end, while range
        // scans skip them via the segment bounds.
        {
          const int64_t rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
          ImpreciseRecord sentinel;
          sentinel.fact_id = -1;
          for (int d = 0; d < k; ++d) {
            sentinel.node[d] = schema.dim(d).leaf_node(0);
            sentinel.level[d] = 1;
          }
          while (out.imprecise.size() % rpp != 0) {
            IOLAP_RETURN_IF_ERROR(imp_appender.Append(sentinel));
          }
        }
        SummaryTableInfo table;
        table.levels = levels;
        table.begin = out.imprecise.size();
        out.tables.push_back(table);
        cur_levels = levels;
      }
      ImpreciseRecord rec;
      rec.fact_id = fact.fact_id;
      rec.measure = fact.measure;
      std::memcpy(rec.node, fact.node, sizeof(rec.node));
      std::memcpy(rec.level, fact.level, sizeof(rec.level));
      rec.table = static_cast<int16_t>(out.tables.size() - 1);
      IOLAP_RETURN_IF_ERROR(imp_appender.Append(rec));

      if (union_domain) {
        Status st =
            EnumerateRegionCells(schema, fact, &stub_budget, &stub_appender);
        IOLAP_RETURN_IF_ERROR(st);
      }
    }
    IOLAP_RETURN_IF_ERROR(flush_cell());
    if (!out.tables.empty()) {
      out.tables.back().end = out.imprecise.size();
    }
    cell_appender.Close();
    imp_appender.Close();
    edb_appender.Close();
    stub_appender.Close();
  }

  // Step 3 (kImpreciseUnion only): sort the stubs and merge them with the
  // precise cells into the final C.
  if (union_domain && stubs.size() > 0) {
    {
      SpecComparator canonical(&schema, SortSpec::Canonical(schema));
      ExternalSorter<CellRecord> sorter(&disk, &pool, env.buffer_pages());
      IOLAP_RETURN_IF_ERROR(sorter.Sort(&stubs, CellSpecLess(&canonical)));
    }
    IOLAP_ASSIGN_OR_RETURN(auto merged,
                           TypedFile<CellRecord>::Create(disk, "cells_union"));
    {
    auto appender = merged.MakeAppender(pool);
    auto pc = out.cells.Scan(pool);
    auto sc = stubs.Scan(pool);
    CellRecord precise_cell, stub_cell;
    bool have_precise = !pc.done(), have_stub = !sc.done();
    if (have_precise) IOLAP_RETURN_IF_ERROR(pc.Next(&precise_cell));
    if (have_stub) IOLAP_RETURN_IF_ERROR(sc.Next(&stub_cell));
    auto advance_precise = [&]() -> Status {
      have_precise = !pc.done();
      if (have_precise) return pc.Next(&precise_cell);
      return Status::Ok();
    };
    auto advance_stub = [&]() -> Status {
      have_stub = !sc.done();
      if (have_stub) return sc.Next(&stub_cell);
      return Status::Ok();
    };
    while (have_precise || have_stub) {
      int cmp;
      if (!have_stub) {
        cmp = -1;
      } else if (!have_precise) {
        cmp = 1;
      } else if (SameLeaves(precise_cell.leaf, stub_cell.leaf, k)) {
        cmp = 0;
      } else {
        cmp = 1;
        for (int d = 0; d < k; ++d) {
          if (precise_cell.leaf[d] != stub_cell.leaf[d]) {
            cmp = precise_cell.leaf[d] < stub_cell.leaf[d] ? -1 : 1;
            break;
          }
        }
      }
      if (cmp <= 0) {
        IOLAP_RETURN_IF_ERROR(appender.Append(precise_cell));
        if (cmp == 0) {
          // Skip all duplicate stubs of this cell.
          LeafKey key;
          std::memcpy(key.data(), stub_cell.leaf, sizeof(int32_t) * kMaxDims);
          while (have_stub && SameLeaves(stub_cell.leaf, key.data(), k)) {
            IOLAP_RETURN_IF_ERROR(advance_stub());
          }
        }
        IOLAP_RETURN_IF_ERROR(advance_precise());
      } else {
        CellRecord fresh;
        std::memcpy(fresh.leaf, stub_cell.leaf, sizeof(fresh.leaf));
        fresh.delta0 = options.DeltaBase();
        fresh.delta_prev = fresh.delta0;
        IOLAP_RETURN_IF_ERROR(appender.Append(fresh));
        LeafKey key;
        std::memcpy(key.data(), stub_cell.leaf, sizeof(int32_t) * kMaxDims);
        while (have_stub && SameLeaves(stub_cell.leaf, key.data(), k)) {
          IOLAP_RETURN_IF_ERROR(advance_stub());
        }
      }
    }
    appender.Close();
    }
    IOLAP_RETURN_IF_ERROR(pool.EvictFile(out.cells.file_id()));
    IOLAP_RETURN_IF_ERROR(disk.DeleteFile(out.cells.file_id()));
    out.cells = merged;
    IOLAP_RETURN_IF_ERROR(pool.EvictFile(stubs.file_id()));
    IOLAP_RETURN_IF_ERROR(disk.DeleteFile(stubs.file_id()));
  }

  // Step 4: fence keys — the first cell key of every page of C.
  {
    const int64_t rpp = TypedFile<CellRecord>::kRecordsPerPage;
    for (int64_t i = 0; i < out.cells.size(); i += rpp) {
      IOLAP_ASSIGN_OR_RETURN(CellRecord c, out.cells.Get(pool, i));
      LeafKey key{};
      std::memcpy(key.data(), c.leaf, sizeof(int32_t) * kMaxDims);
      out.fences.push_back(key);
    }
  }

  // Step 5: conservative first/last bounds per imprecise fact and partition
  // sizes per summary table (the sweep of Section 4.2).
  {
    const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
    const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
    const int64_t num_cells = out.cells.size();
    for (SummaryTableInfo& table : out.tables) {
      int64_t block_count = 0;
      int64_t block_max_last = -2;
      int64_t partition = 0;
      auto cursor = out.imprecise.MutableScan(pool, table.begin, table.end);
      ImpreciseRecord rec;
      while (!cursor.done()) {
        IOLAP_RETURN_IF_ERROR(cursor.Read(&rec));
        LeafKey start = RegionStartKey(schema, rec);
        LeafKey end = RegionEndKey(schema, rec);
        int64_t first_page = LastFenceLeq(out.fences, start, k);
        int64_t last_page = LastFenceLeq(out.fences, end, k);
        if (last_page < 0 || num_cells == 0) {
          rec.first = 0;
          rec.last = -1;  // region entirely before C; certainly empty
        } else {
          rec.first = std::max<int64_t>(0, first_page) * cell_rpp;
          rec.last = std::min(num_cells - 1, last_page * cell_rpp + cell_rpp - 1);
        }
        IOLAP_RETURN_IF_ERROR(cursor.Write(rec));
        cursor.Advance();

        int64_t f = rec.first;
        int64_t l = std::max(rec.last, rec.first);
        if (f > block_max_last) {
          partition = std::max(partition, block_count);
          block_count = 1;
          block_max_last = l;
        } else {
          ++block_count;
          block_max_last = std::max(block_max_last, l);
        }
      }
      partition = std::max(partition, block_count);
      table.partition_records = partition;
      table.partition_pages =
          table.size() == 0 ? 0 : std::max<int64_t>(1, (partition + imp_rpp - 1) / imp_rpp);
    }
    IOLAP_RETURN_IF_ERROR(pool.FlushFile(out.imprecise.file_id()));
  }

  return out;
}

}  // namespace iolap
