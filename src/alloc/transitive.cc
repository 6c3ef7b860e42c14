#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/in_memory.h"
#include "graph/bin_packing.h"
#include "graph/union_find.h"
#include "model/sort_key.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "storage/external_sort.h"

namespace iolap {

namespace {

/// Accumulates a leaf-space bounding box.
struct Bbox {
  int32_t lo[kMaxDims] = {};
  int32_t hi[kMaxDims] = {};
  bool empty = true;

  void AddCell(const int32_t* leaf, int k) {
    for (int d = 0; d < k; ++d) {
      if (empty || leaf[d] < lo[d]) lo[d] = leaf[d];
      if (empty || leaf[d] > hi[d]) hi[d] = leaf[d];
    }
    empty = false;
  }
  void AddRegion(const StarSchema& schema, const int32_t* node, int k) {
    for (int d = 0; d < k; ++d) {
      int32_t b = schema.dim(d).leaf_begin(node[d]);
      int32_t e = schema.dim(d).leaf_end(node[d]) - 1;
      if (empty || b < lo[d]) lo[d] = b;
      if (empty || e > hi[d]) hi[d] = e;
    }
    empty = false;
  }
};

// ---------------------------------------------------------------------------
// Per-component processing for the component loop (step 3).

/// Processes one component that exceeds the memory budget with external
/// Block passes over its per-table entry segments. Needs the whole buffer
/// pool, so no in-memory component is loaded while it runs. Emits directly
/// to `appender`.
Status RunExternalComponent(StorageEnv& env, const StarSchema& schema,
                            PreparedDataset* data,
                            const AllocationOptions& options,
                            const SpecComparator& canonical,
                            const ComponentInfo& info,
                            const std::vector<TableSegment>& segments,
                            TypedFile<EdbRecord>::Appender* appender,
                            AllocationResult* result, int* iterations) {
  std::vector<int64_t> sizes;
  for (const TableSegment& seg : segments) {
    sizes.push_back(data->tables[seg.table].partition_pages);
  }
  PackingResult packed = FirstFitDecreasing(
      sizes, std::max<int64_t>(1, env.buffer_pages() - 4));
  std::vector<std::vector<TableSegment>> comp_groups(packed.num_bins);
  for (size_t i = 0; i < segments.size(); ++i) {
    comp_groups[packed.bin_of[i]].push_back(segments[i]);
  }

  PassEngine engine(&env.pool(), &schema, &data->cells, &data->imprecise,
                    &canonical);
  engine.SetCellRange(info.cell_begin, info.cell_end);
  for (int t = 1; t <= options.EffectiveMaxIterations(); ++t) {
    for (const auto& g : comp_groups) {
      IOLAP_RETURN_IF_ERROR(engine.RunGamma(g));
    }
    double max_eps = 0;
    for (size_t g = 0; g < comp_groups.size(); ++g) {
      IOLAP_RETURN_IF_ERROR(engine.RunDelta(comp_groups[g], g == 0,
                                            g + 1 == comp_groups.size(),
                                            &max_eps));
    }
    *iterations = t;
    if (options.early_convergence && max_eps < options.epsilon) break;
  }
  // Emission for this component.
  for (const auto& g : comp_groups) {
    IOLAP_RETURN_IF_ERROR(engine.RunGamma(g));
  }
  EmitStats stats;
  for (const auto& g : comp_groups) {
    IOLAP_RETURN_IF_ERROR(engine.RunEmit(g, appender, &stats));
  }
  result->edges_emitted += stats.edges_emitted;
  result->unallocatable_facts += stats.unallocatable_facts;
  result->peak_window_records =
      std::max(result->peak_window_records, engine.peak_window_records());
  return Status::Ok();
}

/// Step 3: one streaming pass over the component-sorted files that
/// processes components to convergence and emits them, in strict component
/// order — exactly the classic Algorithm 5 loop. One cursor per file reads
/// each component's cells and then its entries once, and builds the
/// component's directory entry (ranges, bbox) as it goes. Components that
/// fit the buffer pool are iterated in memory from what was read; larger
/// ones run the external Block passes with the whole pool. `dir` holds the
/// finished components, and the stream starts behind the last of them
/// (a resumed run keeps the ones it restored). With `ckpt`, commits a
/// checkpoint every `checkpoint.every` finished components and a final one.
Status RunTransitiveComponents(StorageEnv& env, const StarSchema& schema,
                               PreparedDataset* data,
                               const AllocationOptions& options,
                               AllocationResult* result,
                               std::vector<ComponentInfo>& dir,
                               CheckpointManager* ckpt) {
  const int k = schema.num_dims();
  BufferPool& pool = env.pool();
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  const int64_t page_budget = std::max<int64_t>(1, env.buffer_pages() - 2);
  auto appender = result->edb.MakeAppender(pool);

  // Each cursor reads one record ahead: `cell` is record `cell_index` of
  // the cells file and `cell_id` its component, and likewise for entries.
  // Step 2 left canonical component ids in the records, so a component is
  // a run of equal ids. Records in no component (ccid < 0) sort last, and
  // they and the end of a file read as kNoComponent.
  int64_t cell_index = dir.empty() ? 0 : dir.back().cell_end;
  int64_t entry_index = dir.empty() ? 0 : dir.back().entry_end;
  auto cc = data->cells.Scan(pool, cell_index);
  auto ec = data->imprecise.Scan(pool, entry_index);
  auto next = [](auto& cursor, auto* record, int32_t* id) -> Status {
    *id = kNoComponent;
    if (cursor.done()) return Status::Ok();
    IOLAP_RETURN_IF_ERROR(cursor.Next(record));
    *id = ComponentOf(record->ccid);
    return Status::Ok();
  };
  CellRecord cell;
  ImpreciseRecord entry;
  int32_t cell_id = kNoComponent, entry_id = kNoComponent;
  IOLAP_RETURN_IF_ERROR(next(cc, &cell, &cell_id));
  IOLAP_RETURN_IF_ERROR(next(ec, &entry, &entry_id));

  std::vector<CellRecord> cells;
  std::vector<ImpreciseRecord> entries;
  std::vector<TableSegment> segments;
  while (true) {
    const int32_t id = std::min(cell_id, entry_id);
    if (id == kNoComponent) break;  // only the tails are left
    TraceSpan component_span("transitive.component");
    ComponentInfo info;
    info.ccid = id;
    info.cell_begin = cell_index;
    info.entry_begin = entry_index;
    info.edb_begin = result->edb.size();
    auto pages = [&] {
      return (cell_index - info.cell_begin + cell_rpp - 1) / cell_rpp +
             (entry_index - info.entry_begin + imp_rpp - 1) / imp_rpp;
    };
    // The component is buffered for in-memory processing until its page
    // count alone exceeds the budget; past that it is only measured.
    bool large = false;
    auto buffer = [&](auto* records, const auto& record) {
      large = large || pages() > page_budget;
      if (!large) records->push_back(record);
    };
    cells.clear();
    entries.clear();
    segments.clear();
    Bbox bbox;
    while (cell_id == id) {
      bbox.AddCell(cell.leaf, k);
      ++cell_index;
      buffer(&cells, cell);
      IOLAP_RETURN_IF_ERROR(next(cc, &cell, &cell_id));
    }
    while (entry_id == id) {
      bbox.AddRegion(schema, entry.node, k);
      // Entries are sorted by summary table within the component.
      if (segments.empty() || segments.back().table != entry.table) {
        segments.push_back(TableSegment{entry_index, entry_index, entry.table,
                                        data->tables[entry.table].levels});
      }
      segments.back().end = ++entry_index;
      buffer(&entries, entry);
      IOLAP_RETURN_IF_ERROR(next(ec, &entry, &entry_id));
    }
    info.cell_end = cell_index;
    info.entry_end = entry_index;
    std::memcpy(info.bbox_lo, bbox.lo, sizeof(info.bbox_lo));
    std::memcpy(info.bbox_hi, bbox.hi, sizeof(info.bbox_hi));
    component_span.AddArg("ccid", info.ccid);
    component_span.AddArg("tuples", info.tuples());

    int iterations = 0;
    if (!large) {
      MemoryAllocator ma(&schema, std::move(cells), std::move(entries));
      iterations = ma.Iterate(options.epsilon, options.EffectiveMaxIterations(),
                              /*force_all_iterations=*/
                              !options.early_convergence &&
                                  options.policy != PolicyKind::kUniform);
      IOLAP_RETURN_IF_ERROR(ma.Emit(&appender, &result->edges_emitted,
                                    &result->unallocatable_facts));
    } else {
      ++result->components.num_large_components;
      result->components.large_component_pages += pages();
      // The external passes need the whole pool: drop both cursors' pins.
      // The fresh cursors stand where the stream does and pin again on
      // their next read.
      cc = data->cells.Scan(pool, cc.index());
      ec = data->imprecise.Scan(pool, ec.index());
      IOLAP_RETURN_IF_ERROR(RunExternalComponent(env, schema, data, options,
                                                 canonical, info, segments,
                                                 &appender, result,
                                                 &iterations));
    }
    info.edb_end = result->edb.size();
    dir.push_back(info);

    result->components.largest_component =
        std::max(result->components.largest_component, info.tuples());
    ++result->components.num_components;
    result->components.max_component_iterations = std::max<int64_t>(
        result->components.max_component_iterations, iterations);
    result->components.total_component_iterations += iterations;
    result->iterations =
        static_cast<int>(result->components.max_component_iterations);

    if (ckpt != nullptr && ckpt->DueAtComponent(dir.size())) {
      IOLAP_RETURN_IF_ERROR(ckpt->CheckpointComponents(data, *result, dir));
    }
  }

  appender.Close();
  if (ckpt != nullptr) {
    IOLAP_RETURN_IF_ERROR(
        ckpt->CheckpointComponents(data, *result, dir, /*final=*/true));
  }
  return Status::Ok();
}

}  // namespace

Status RunTransitive(StorageEnv& env, const StarSchema& schema,
                     PreparedDataset* data, const AllocationOptions& options,
                     AllocationResult* result,
                     std::vector<ComponentInfo>* directory,
                     CheckpointManager* ckpt) {
  BufferPool& pool = env.pool();
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));

  std::vector<ComponentInfo> local_directory;
  std::vector<ComponentInfo>& dir =
      directory != nullptr ? *directory : local_directory;
  dir.clear();

  if (ckpt != nullptr && ckpt->resumed()) {
    // The checkpoint captured the component-sorted files, the finished
    // components [0, next_component) and the result so far, census
    // included: steps 1–2 are paid for, and finished components are never
    // revisited, as their EDB rows sit inside the restored EDB image
    // (DESIGN.md §9). After the final checkpoint nothing is left to do.
    dir = ckpt->TakeDirectory();
    if (ckpt->resumed_converged()) return Status::Ok();
    return RunTransitiveComponents(env, schema, data, options, result, dir,
                                   ckpt);
  }

  // ---- Step 1: assign ccids with one Block-style pass per group.
  auto groups = PackTableGroups(*data, env.buffer_pages());
  result->num_groups = static_cast<int>(groups.size());
  UnionFind uf(0);
  {
    TraceSpan ccid_span("transitive.ccid");
    PassEngine engine(&pool, &schema, &data->cells, &data->imprecise,
                      &canonical);
    for (const auto& group : groups) {
      IOLAP_RETURN_IF_ERROR(engine.RunCcid(group, &uf));
    }
    result->peak_window_records =
        std::max(result->peak_window_records, engine.peak_window_records());
  }

  // Collapse the ccidMap to canonical ("true") component ids.
  std::vector<int32_t> canon(uf.size());
  for (int32_t i = 0; i < uf.size(); ++i) canon[i] = uf.Canonical(i);

  // ---- Step 2: sort all tuples into component order. Each record's ccid
  // becomes its canonical id as the sort first reads it, so step 3 (and a
  // resumed run, which has no ccidMap) finds components by comparing ids.
  // The records in no component, which sort behind every component, are
  // counted there too: cells are precise-only singletons, entries are facts
  // that overlap no cell or page-padding sentinels (fact_id < 0).
  {
    TraceSpan sort_span("transitive.component_sort");
    ExternalSorter<CellRecord> cell_sorter(&env.disk(), &pool,
                                           env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(cell_sorter.Sort(
        &data->cells, ComponentCellLess(canon.size(), &canonical),
        [&](CellRecord& cell) {
          if (cell.ccid >= 0) {
            cell.ccid = canon[cell.ccid];
          } else {
            ++result->components.num_singleton_cells;
          }
        }));
    ExternalSorter<ImpreciseRecord> entry_sorter(&env.disk(), &pool,
                                                 env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(entry_sorter.Sort(
        &data->imprecise,
        ComponentEntryLess(canon.size(), data->tables.size(), &canonical),
        [&](ImpreciseRecord& entry) {
          if (entry.ccid >= 0) {
            entry.ccid = canon[entry.ccid];
          } else if (entry.fact_id >= 0) {
            ++result->unallocatable_facts;
          }
        }));
  }

  // ---- Step 3.
  return RunTransitiveComponents(env, schema, data, options, result, dir,
                                 ckpt);
}

}  // namespace iolap
