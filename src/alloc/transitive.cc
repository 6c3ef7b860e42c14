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
  int32_t lo[kMaxDims];
  int32_t hi[kMaxDims];
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
// Per-component processing for the serial component loop (step 3b).

/// Loads one component's cell/entry segments into memory through the
/// buffer pool. It only reads the component-sorted files and touches state
/// owned by the caller.
Status LoadComponent(BufferPool& pool, const PreparedDataset& data,
                     const ComponentInfo& info, std::vector<CellRecord>* cells,
                     std::vector<ImpreciseRecord>* entries) {
  cells->reserve(info.cell_end - info.cell_begin);
  {
    auto cur = data.cells.Scan(pool, info.cell_begin, info.cell_end);
    CellRecord c;
    while (!cur.done()) {
      IOLAP_RETURN_IF_ERROR(cur.Next(&c));
      cells->push_back(c);
    }
  }
  entries->reserve(info.entry_end - info.entry_begin);
  {
    auto cur = data.imprecise.Scan(pool, info.entry_begin, info.entry_end);
    ImpreciseRecord e;
    while (!cur.done()) {
      IOLAP_RETURN_IF_ERROR(cur.Next(&e));
      entries->push_back(e);
    }
  }
  return Status::Ok();
}

/// EM-converges one in-memory component. Returns the iterations executed.
int ConvergeComponent(MemoryAllocator* ma, const AllocationOptions& options) {
  return ma->Iterate(options.epsilon, options.EffectiveMaxIterations(),
                     /*force_all_iterations=*/
                     !options.early_convergence &&
                         options.policy != PolicyKind::kUniform);
}

/// Processes one component that exceeds the memory budget with external
/// Block passes over its segments. Needs the whole buffer pool, so no
/// in-memory component is loaded while it runs. Emits directly to
/// `appender`.
Status RunExternalComponent(StorageEnv& env, const StarSchema& schema,
                            PreparedDataset* data,
                            const AllocationOptions& options,
                            const SpecComparator& canonical,
                            const ComponentInfo& info,
                            TypedFile<EdbRecord>::Appender* appender,
                            AllocationResult* result, int* iterations) {
  BufferPool& pool = env.pool();
  const int max_iterations = options.EffectiveMaxIterations();

  // Discover the per-table subsegments (entries are sorted by table
  // within the component).
  std::vector<TableSegment> segments;
  {
    auto cur = data->imprecise.Scan(pool, info.entry_begin, info.entry_end);
    ImpreciseRecord e;
    int64_t index = info.entry_begin;
    while (!cur.done()) {
      IOLAP_RETURN_IF_ERROR(cur.Next(&e));
      if (segments.empty() || segments.back().table != e.table) {
        if (!segments.empty()) segments.back().end = index;
        segments.push_back(
            TableSegment{index, index, e.table, data->tables[e.table].levels});
      }
      ++index;
    }
    if (!segments.empty()) segments.back().end = index;
  }
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

  PassEngine engine(&pool, &schema, &data->cells, &data->imprecise,
                    &canonical);
  engine.SetCellRange(info.cell_begin, info.cell_end);
  for (int t = 1; t <= max_iterations; ++t) {
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

/// Step 3b: process components [start_component, dir.size()) to
/// convergence and emit, in strict component order — exactly the classic
/// Algorithm 5 loop. Components that fit the buffer pool are loaded and
/// iterated in memory; larger ones run the external Block passes with the
/// whole pool. With `ckpt`, commits a checkpoint every `checkpoint.every`
/// finished components plus a final one.
Status RunTransitiveComponents(StorageEnv& env, const StarSchema& schema,
                               PreparedDataset* data,
                               const AllocationOptions& options,
                               AllocationResult* result,
                               std::vector<ComponentInfo>& dir,
                               int64_t start_component,
                               CheckpointManager* ckpt) {
  BufferPool& pool = env.pool();
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  const int64_t budget_records_limit =
      std::max<int64_t>(1, env.buffer_pages() - 2);
  auto appender = result->edb.MakeAppender(pool);

  for (size_t i = static_cast<size_t>(start_component); i < dir.size(); ++i) {
    ComponentInfo& info = dir[i];
    TraceSpan component_span("transitive.component");
    component_span.AddArg("ccid", info.ccid);
    component_span.AddArg("tuples", info.tuples());
    info.edb_begin = result->edb.size();
    const int64_t pages =
        (info.cell_end - info.cell_begin + cell_rpp - 1) / cell_rpp +
        (info.entry_end - info.entry_begin + imp_rpp - 1) / imp_rpp;
    int iterations = 0;
    if (pages <= budget_records_limit) {
      std::vector<CellRecord> cells;
      std::vector<ImpreciseRecord> entries;
      IOLAP_RETURN_IF_ERROR(LoadComponent(pool, *data, info, &cells, &entries));
      MemoryAllocator ma(&schema, std::move(cells), std::move(entries));
      iterations = ConvergeComponent(&ma, options);
      IOLAP_RETURN_IF_ERROR(ma.Emit(&appender, &result->edges_emitted,
                                    &result->unallocatable_facts));
    } else {
      ++result->components.num_large_components;
      result->components.large_component_pages += pages;
      IOLAP_RETURN_IF_ERROR(RunExternalComponent(env, schema, data, options,
                                                 canonical, info, &appender,
                                                 result, &iterations));
    }
    info.edb_end = result->edb.size();

    result->components.largest_component =
        std::max(result->components.largest_component, info.tuples());
    ++result->components.num_components;
    result->components.max_component_iterations = std::max<int64_t>(
        result->components.max_component_iterations, iterations);
    result->components.total_component_iterations += iterations;
    result->iterations =
        static_cast<int>(result->components.max_component_iterations);

    if (ckpt != nullptr && ckpt->DueAtComponent(static_cast<int64_t>(i) + 1)) {
      IOLAP_RETURN_IF_ERROR(ckpt->CheckpointComponents(
          static_cast<int64_t>(i) + 1, data, *result, dir));
    }
  }
  appender.Close();
  if (ckpt != nullptr) {
    IOLAP_RETURN_IF_ERROR(ckpt->CheckpointComponents(
        static_cast<int64_t>(dir.size()), data, *result, dir));
  }
  return Status::Ok();
}

}  // namespace

Status RunTransitive(StorageEnv& env, const StarSchema& schema,
                     PreparedDataset* data, const AllocationOptions& options,
                     AllocationResult* result,
                     std::vector<ComponentInfo>* directory,
                     CheckpointManager* ckpt) {
  const int k = schema.num_dims();
  BufferPool& pool = env.pool();
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));

  std::vector<ComponentInfo> local_directory;
  std::vector<ComponentInfo>& dir =
      directory != nullptr ? *directory : local_directory;
  // First component index not yet converged-and-emitted. Everything below
  // it is final — its EDB rows sit inside the restored EDB image — so the
  // resumed run never revisits it (DESIGN.md §9).
  int64_t start_component = 0;

  if (ckpt != nullptr && ckpt->resumed()) {
    // The checkpoint captured the component-sorted files and the complete
    // directory, so steps 1–3a (ccid pass, component sort, directory scan)
    // are already paid for. The tail censuses (singleton cells,
    // unallocatable facts) were restored with the result.
    dir = ckpt->TakeDirectory();
    start_component = ckpt->start_component();
    return RunTransitiveComponents(env, schema, data, options, result, dir,
                                   start_component, ckpt);
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

  // ---- Step 2: sort all tuples into component order.
  {
    TraceSpan sort_span("transitive.component_sort");
    ExternalSorter<CellRecord> cell_sorter(&env.disk(), &pool,
                                           env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(cell_sorter.Sort(
        &data->cells, ComponentCellLess(&canon, &canonical)));
    ExternalSorter<ImpreciseRecord> entry_sorter(&env.disk(), &pool,
                                                 env.buffer_pages());
    IOLAP_RETURN_IF_ERROR(entry_sorter.Sort(
        &data->imprecise,
        ComponentEntryLess(&canon, data->tables.size(), &canonical)));
  }

  // ---- Step 3a: one streaming scan building the component directory.
  dir.clear();
  {
    TraceSpan dir_span("transitive.directory");
    auto cc = data->cells.Scan(pool);
    auto ec = data->imprecise.Scan(pool);
    CellRecord cell;
    ImpreciseRecord entry;
    bool have_cell = !cc.done(), have_entry = !ec.done();
    int64_t cell_index = 0, entry_index = 0;
    if (have_cell) IOLAP_RETURN_IF_ERROR(cc.Next(&cell));
    if (have_entry) IOLAP_RETURN_IF_ERROR(ec.Next(&entry));

    while (have_cell || have_entry) {
      int32_t ckey = have_cell ? CanonOf(canon, cell.ccid) : kNoComponent;
      int32_t ekey = have_entry ? CanonOf(canon, entry.ccid) : kNoComponent;
      int32_t id = std::min(ckey, ekey);
      if (id == kNoComponent) {
        // Tail: cells in no component (precise-only singletons), real
        // entries that overlap no cell, and page-padding sentinels.
        while (have_cell) {
          ++result->components.num_singleton_cells;
          ++cell_index;
          have_cell = !cc.done();
          if (have_cell) IOLAP_RETURN_IF_ERROR(cc.Next(&cell));
        }
        while (have_entry) {
          if (entry.fact_id >= 0) ++result->unallocatable_facts;
          ++entry_index;
          have_entry = !ec.done();
          if (have_entry) IOLAP_RETURN_IF_ERROR(ec.Next(&entry));
        }
        break;
      }
      ComponentInfo info;
      info.ccid = id;
      info.cell_begin = cell_index;
      info.entry_begin = entry_index;
      Bbox bbox;
      while (have_cell && CanonOf(canon, cell.ccid) == id) {
        bbox.AddCell(cell.leaf, k);
        ++cell_index;
        have_cell = !cc.done();
        if (have_cell) IOLAP_RETURN_IF_ERROR(cc.Next(&cell));
      }
      while (have_entry && CanonOf(canon, entry.ccid) == id) {
        bbox.AddRegion(schema, entry.node, k);
        ++entry_index;
        have_entry = !ec.done();
        if (have_entry) IOLAP_RETURN_IF_ERROR(ec.Next(&entry));
      }
      info.cell_end = cell_index;
      info.entry_end = entry_index;
      std::memcpy(info.bbox_lo, bbox.lo, sizeof(info.bbox_lo));
      std::memcpy(info.bbox_hi, bbox.hi, sizeof(info.bbox_hi));
      dir.push_back(info);
    }
  }

  // ---- Step 3b.
  return RunTransitiveComponents(env, schema, data, options, result, dir,
                                 start_component, ckpt);
}

}  // namespace iolap
