#include "edb/maintenance.h"

#include <algorithm>
#include <cstring>

#include "alloc/in_memory.h"
#include "alloc/preprocess.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace iolap {

namespace {

Rect RegionRect(const StarSchema& schema, const FactRecord& fact) {
  Rect r;
  for (int d = 0; d < schema.num_dims(); ++d) {
    r.lo[d] = schema.dim(d).leaf_begin(fact.node[d]);
    r.hi[d] = schema.dim(d).leaf_end(fact.node[d]) - 1;
  }
  return r;
}

std::array<int32_t, kMaxDims> LeafKeyOfPrecise(const StarSchema& schema,
                                               const FactRecord& fact) {
  std::array<int32_t, kMaxDims> key{};
  for (int d = 0; d < schema.num_dims(); ++d) {
    key[d] = schema.dim(d).leaf_begin(fact.node[d]);
  }
  return key;
}

bool LeafLess(const int32_t* a, const int32_t* b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return false;
}

constexpr int32_t kAbsorbedCcid = -2;

EdbRecord Tombstone() {
  EdbRecord rec;
  rec.fact_id = -1;
  rec.weight = 0;
  rec.measure = 0;
  return rec;
}

}  // namespace

Result<std::unique_ptr<MaintenanceManager>> MaintenanceManager::Build(
    StorageEnv& env, const StarSchema& schema, TypedFile<FactRecord>* facts,
    const AllocationOptions& options) {
  TraceSpan span("maint.build");
  auto manager = std::unique_ptr<MaintenanceManager>(
      new MaintenanceManager(&env, &schema));
  manager->options_ = options;
  manager->options_.algorithm = AlgorithmKind::kTransitive;

  IOLAP_ASSIGN_OR_RETURN(manager->data_,
                         PrepareDataset(env, schema, facts, manager->options_));
  manager->build_result_.num_cells = manager->data_.cells.size();
  manager->build_result_.num_precise = manager->data_.num_precise_facts;
  manager->build_result_.num_imprecise = manager->data_.num_imprecise_facts;
  manager->build_result_.num_tables =
      static_cast<int>(manager->data_.tables.size());
  manager->build_result_.edb = manager->data_.precise_edb;

  std::vector<ComponentInfo> info;
  Stopwatch watch;
  IOLAP_RETURN_IF_ERROR(RunTransitive(env, schema, &manager->data_,
                                      manager->options_,
                                      &manager->build_result_, &info));
  manager->build_result_.alloc_seconds = watch.ElapsedSeconds();

  // Translate the build's component directory into the overlay model and
  // insert each component's bounding box into the R-tree (Section 9's index
  // over component bounding boxes), one Insert per component.
  IOLAP_ASSIGN_OR_RETURN(
      PagedRTree tree,
      PagedRTree::Create(&env.disk(), &env.pool(), schema.num_dims()));
  manager->rtree_ = std::make_unique<PagedRTree>(std::move(tree));
  manager->directory_.reserve(info.size());
  manager->singleton_begin_ = 0;
  for (size_t i = 0; i < info.size(); ++i) {
    const ComponentInfo& c = info[i];
    MaintComponent m;
    m.cell_segments.push_back({c.cell_begin, c.cell_end});
    m.entry_segments.push_back({c.entry_begin, c.entry_end});
    m.bbox = Rect::Of(c.bbox_lo, c.bbox_hi, schema.num_dims());
    m.edb_ranges.push_back({c.edb_begin, c.edb_end});
    manager->directory_.push_back(std::move(m));
    IOLAP_RETURN_IF_ERROR(manager->rtree_->Insert(
        manager->directory_.back().bbox, static_cast<int64_t>(i)));
    manager->singleton_begin_ =
        std::max(manager->singleton_begin_, c.cell_end);
  }
  return manager;
}

Result<int64_t> MaintenanceManager::FindSingletonCell(const LeafKey& key) {
  const int k = schema_->num_dims();
  int64_t lo = singleton_begin_;
  int64_t hi = data_.cells.size();
  while (lo < hi) {
    int64_t mid = (lo + hi) / 2;
    IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(env_->pool(), mid));
    if (LeafLess(cell.leaf, key.data(), k)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= data_.cells.size()) return int64_t{-1};
  IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(env_->pool(), lo));
  if (std::memcmp(cell.leaf, key.data(), sizeof(cell.leaf)) != 0 ||
      cell.ccid == kAbsorbedCcid) {
    return int64_t{-1};
  }
  return lo;
}

Status MaintenanceManager::AbsorbCoveredCells(const FactRecord& fact,
                                              std::vector<CellRecord>* out) {
  const int k = schema_->num_dims();
  // Narrow the singleton scan to the region's canonical key range.
  LeafKey start{}, end{};
  for (int d = 0; d < k; ++d) {
    start[d] = schema_->dim(d).leaf_begin(fact.node[d]);
    end[d] = schema_->dim(d).leaf_end(fact.node[d]) - 1;
  }
  int64_t lo = singleton_begin_, hi = data_.cells.size();
  {
    int64_t a = lo, b = hi;
    while (a < b) {
      int64_t mid = (a + b) / 2;
      IOLAP_ASSIGN_OR_RETURN(CellRecord cell,
                             data_.cells.Get(env_->pool(), mid));
      if (LeafLess(cell.leaf, start.data(), k)) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    lo = a;
  }
  auto cursor = data_.cells.MutableScan(env_->pool(), lo, hi);
  CellRecord cell;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
    if (LeafLess(end.data(), cell.leaf, k)) break;  // past the region's range
    if (cell.ccid == -1 && RegionCovers(*schema_, fact.node, cell.leaf)) {
      CellRecord copy = cell;
      copy.ccid = -1;
      out->push_back(copy);
      cell.ccid = kAbsorbedCcid;  // the overlay copy is now authoritative
      IOLAP_RETURN_IF_ERROR(cursor.Write(cell));
    }
    cursor.Advance();
  }
  // Loose cells (added after the build).
  for (auto it = loose_cells_.begin(); it != loose_cells_.end();) {
    if (RegionCovers(*schema_, fact.node, it->leaf)) {
      out->push_back(*it);
      it = loose_cells_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

Status MaintenanceManager::ReallocateComponent(
    int64_t comp, std::map<LeafKey, double>* delta_adjust,
    std::vector<CellRecord>* candidate_cells, MaintenanceStats* stats) {
  TraceSpan span("maint.reallocate_component");
  span.AddArg("comp", comp);
  MaintComponent& c = directory_[comp];
  BufferPool& pool = env_->pool();
  ++stats->components_touched;

  // ---- Fetch cells (apply + persist pending δ adjustments). If an
  // adjustment lands on an existing cell, a same-key candidate (from a
  // precise insert whose cell location was unknown) is redundant: drop it.
  std::vector<CellRecord> cells;
  std::set<LeafKey> present;
  auto apply_adjust = [&](CellRecord* cell) -> bool {
    if (delta_adjust == nullptr || delta_adjust->empty()) return false;
    LeafKey key{};
    std::memcpy(key.data(), cell->leaf, sizeof(cell->leaf));
    auto it = delta_adjust->find(key);
    if (it == delta_adjust->end()) return false;
    cell->delta0 += it->second;
    delta_adjust->erase(it);
    if (candidate_cells != nullptr) {
      candidate_cells->erase(
          std::remove_if(candidate_cells->begin(), candidate_cells->end(),
                         [&](const CellRecord& cand) {
                           return std::memcmp(cand.leaf, key.data(),
                                              sizeof(cand.leaf)) == 0;
                         }),
          candidate_cells->end());
    }
    return true;
  };
  for (auto [begin, end] : c.cell_segments) {
    auto cursor = data_.cells.MutableScan(pool, begin, end);
    CellRecord cell;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
      if (apply_adjust(&cell)) {
        IOLAP_RETURN_IF_ERROR(cursor.Write(cell));
      }
      cell.delta_prev = cell.delta0;  // fresh EM start, as a rebuild would
      LeafKey key{};
      std::memcpy(key.data(), cell.leaf, sizeof(cell.leaf));
      present.insert(key);
      cells.push_back(cell);
      cursor.Advance();
    }
  }
  for (CellRecord& overlay : c.overlay_cells) {
    apply_adjust(&overlay);  // persists in the directory's overlay copy
    CellRecord cell = overlay;
    cell.delta_prev = cell.delta0;
    LeafKey key{};
    std::memcpy(key.data(), cell.leaf, sizeof(cell.leaf));
    present.insert(key);
    cells.push_back(cell);
  }
  // Candidate cells join the fetch unless already present. They are
  // identified by leaf key afterwards (MemoryAllocator sorts its cells).
  const size_t candidate_start = cells.size();
  std::vector<LeafKey> candidate_keys;
  if (candidate_cells != nullptr) {
    for (size_t i = 0; i < candidate_cells->size(); ++i) {
      LeafKey key{};
      std::memcpy(key.data(), (*candidate_cells)[i].leaf,
                  sizeof((*candidate_cells)[i].leaf));
      if (present.count(key) != 0) continue;
      CellRecord cell = (*candidate_cells)[i];
      cell.delta_prev = cell.delta0;
      cells.push_back(cell);
      candidate_keys.push_back(key);
    }
  }

  // ---- Fetch entries (skip tombstoned facts).
  std::vector<ImpreciseRecord> entries;
  for (auto [begin, end] : c.entry_segments) {
    auto cursor = data_.imprecise.Scan(pool, begin, end);
    ImpreciseRecord e;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&e));
      if (c.deleted.count(e.fact_id) == 0) entries.push_back(e);
    }
  }
  for (const ImpreciseRecord& e : c.overlay_entries) {
    if (c.deleted.count(e.fact_id) == 0) entries.push_back(e);
  }
  stats->tuples_fetched += static_cast<int64_t>(cells.size() + entries.size());

  std::vector<EdbRecord> rows;
  if (entries.empty()) {
    // The component dissolved: its cells go back to the loose pool so
    // future imprecise inserts can still find them.
    for (size_t i = 0; i < candidate_start; ++i) {
      cells[i].ccid = -1;
      loose_cells_.push_back(cells[i]);
    }
    c.alive = false;
    bool removed_ok = false;
    IOLAP_RETURN_IF_ERROR(rtree_->Remove(c.bbox, comp, &removed_ok));
  } else {
    // ---- Re-allocate from scratch and collect the rows.
    MemoryAllocator ma(schema_, std::move(cells), std::move(entries));
    ma.Iterate(options_.epsilon, options_.EffectiveMaxIterations(),
               /*force_all_iterations=*/false);
    int64_t unallocatable = 0;
    ma.EmitToVector(&rows, &unallocatable);

    // Candidates covered by this component's facts join it for good.
    if (candidate_cells != nullptr && !candidate_keys.empty()) {
      std::vector<bool> covered(ma.cells().size(), false);
      for (int32_t ci : ma.edge_cells()) covered[ci] = true;
      // A candidate is claimed by the first covered cell with its key.
      std::map<LeafKey, size_t> candidate_pos;
      for (size_t i = 0; i < candidate_keys.size(); ++i) {
        candidate_pos.emplace(candidate_keys[i], i);
      }
      std::vector<int32_t> claimed_cell(candidate_keys.size(), -1);
      for (size_t ci = 0; ci < ma.cells().size(); ++ci) {
        if (!covered[ci]) continue;
        LeafKey key{};
        std::memcpy(key.data(), ma.cells()[ci].leaf, sizeof(key));
        auto it = candidate_pos.find(key);
        if (it != candidate_pos.end() && claimed_cell[it->second] < 0) {
          claimed_cell[it->second] = static_cast<int32_t>(ci);
        }
      }
      for (int32_t ci : claimed_cell) {
        if (ci >= 0) c.overlay_cells.push_back(ma.cells()[ci]);
      }
      candidate_cells->erase(
          std::remove_if(candidate_cells->begin(), candidate_cells->end(),
                         [&](const CellRecord& cand) {
                           LeafKey key{};
                           std::memcpy(key.data(), cand.leaf,
                                       sizeof(cand.leaf));
                           auto it = candidate_pos.find(key);
                           return it != candidate_pos.end() &&
                                  claimed_cell[it->second] >= 0;
                         }),
          candidate_cells->end());
    }
  }

  // ---- Report the row turnover before the splice overwrites the old rows
  // (the scan pins the same pages the Puts below are about to pin).
  if (listener_ != nullptr) {
    for (auto [begin, end] : c.edb_ranges) {
      auto cursor = build_result_.edb.Scan(pool, begin, end);
      EdbRecord old;
      while (!cursor.done()) {
        IOLAP_RETURN_IF_ERROR(cursor.Next(&old));
        if (old.weight == 0 && old.fact_id == -1) continue;  // tombstone
        listener_->OnRemove(old);
      }
    }
    for (const EdbRecord& row : rows) listener_->OnAdd(row);
  }

  // ---- Splice the rows into the component's EDB ranges.
  size_t next_row = 0;
  std::vector<std::pair<int64_t, int64_t>> new_ranges;
  for (auto [begin, end] : c.edb_ranges) {
    int64_t at = begin;
    while (at < end && next_row < rows.size()) {
      IOLAP_RETURN_IF_ERROR(
          build_result_.edb.Put(pool, at, rows[next_row]));
      ++at;
      ++next_row;
      ++stats->edb_rows_rewritten;
    }
    if (at > begin) new_ranges.push_back({begin, at});
    while (at < end) {
      IOLAP_RETURN_IF_ERROR(build_result_.edb.Put(pool, at, Tombstone()));
      ++at;
      ++stats->edb_rows_tombstoned;
    }
  }
  if (next_row < rows.size()) {
    int64_t begin = build_result_.edb.size();
    auto appender = build_result_.edb.MakeAppender(pool);
    while (next_row < rows.size()) {
      IOLAP_RETURN_IF_ERROR(appender.Append(rows[next_row]));
      ++next_row;
      ++stats->edb_rows_appended;
    }
    appender.Close();
    new_ranges.push_back({begin, build_result_.edb.size()});
  }
  c.edb_ranges = std::move(new_ranges);
  return Status::Ok();
}

Status MaintenanceManager::ApplyUpdates(const std::vector<FactUpdate>& updates,
                                        MaintenanceStats* stats) {
  TraceSpan span("maint.apply_updates");
  span.AddArg("updates", static_cast<int64_t>(updates.size()));
  const int k = schema_->num_dims();
  BufferPool& pool = env_->pool();
  Stopwatch watch;
  IoStats io_before = env_->disk().stats();

  std::unordered_map<FactId, const FactUpdate*> by_id;
  std::map<LeafKey, double> delta_adjust;
  bool any_precise = false;
  for (const FactUpdate& u : updates) {
    by_id[u.before.fact_id] = &u;
    if (u.before.IsPrecise(k)) {
      any_precise = true;
      if (options_.policy == PolicyKind::kMeasure) {
        delta_adjust[LeafKeyOfPrecise(*schema_, u.before)] +=
            u.new_measure - u.before.measure;
      }
    }
  }
  stats->updates_applied += static_cast<int64_t>(updates.size());

  // New measures must reach the stored imprecise records (and overlays)
  // before re-allocation; segments are patched during the fetch below, so
  // patch overlays and the imprecise file directly here for *affected*
  // components only — measure changes of imprecise facts do not alter
  // weights, only the emitted rows, so patching affected components before
  // their re-emission suffices.
  std::set<int64_t> affected;
  rtree_->ResetStats();
  for (const FactUpdate& u : updates) {
    const Rect rect = RegionRect(*schema_, u.before);
    stats->touched_boxes.push_back(rect);
    std::vector<int64_t> hits;
    IOLAP_RETURN_IF_ERROR(rtree_->Search(rect, &hits));
    for (int64_t h : hits) {
      if (directory_[h].alive) {
        affected.insert(h);
        stats->touched_boxes.push_back(directory_[h].bbox);
      }
    }
  }
  stats->rtree_nodes_accessed += rtree_->nodes_accessed();

  for (int64_t comp : affected) {
    MaintComponent& c = directory_[comp];
    // Patch imprecise measures in the stored segments and overlays.
    for (auto [begin, end] : c.entry_segments) {
      auto cursor = data_.imprecise.MutableScan(pool, begin, end);
      ImpreciseRecord e;
      while (!cursor.done()) {
        IOLAP_RETURN_IF_ERROR(cursor.Read(&e));
        auto it = by_id.find(e.fact_id);
        if (it != by_id.end() && !it->second->before.IsPrecise(k)) {
          e.measure = it->second->new_measure;
          IOLAP_RETURN_IF_ERROR(cursor.Write(e));
        }
        cursor.Advance();
      }
    }
    for (ImpreciseRecord& e : c.overlay_entries) {
      auto it = by_id.find(e.fact_id);
      if (it != by_id.end() && !it->second->before.IsPrecise(k)) {
        e.measure = it->second->new_measure;
      }
    }
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, nullptr, stats));
  }

  // δ shifts of precise facts outside any component (singleton cells).
  for (auto& [key, shift] : delta_adjust) {
    IOLAP_ASSIGN_OR_RETURN(int64_t index, FindSingletonCell(key));
    if (index >= 0) {
      IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(pool, index));
      cell.delta0 += shift;
      cell.delta_prev = cell.delta0;
      IOLAP_RETURN_IF_ERROR(data_.cells.Put(pool, index, cell));
    } else {
      for (CellRecord& cell : loose_cells_) {
        if (std::memcmp(cell.leaf, key.data(), sizeof(cell.leaf)) == 0) {
          cell.delta0 += shift;
          cell.delta_prev = cell.delta0;
        }
      }
    }
  }

  // Refresh measures of updated precise facts' EDB rows.
  if (any_precise) {
    // Compaction may have shrunk the precise prefix; reading a few rows
    // beyond it is harmless (ids are unique), reading past EOF is not.
    auto cursor = build_result_.edb.MutableScan(
        pool, 0, std::min(build_result_.num_precise, build_result_.edb.size()));
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Read(&rec));
      auto it = by_id.find(rec.fact_id);
      if (it != by_id.end() && it->second->before.IsPrecise(k)) {
        if (listener_ != nullptr) listener_->OnRemove(rec);
        rec.measure = it->second->new_measure;
        IOLAP_RETURN_IF_ERROR(cursor.Write(rec));
        if (listener_ != nullptr) listener_->OnAdd(rec);
        ++stats->edb_rows_rewritten;
      }
      cursor.Advance();
    }
    for (const FactUpdate& u : updates) {
      auto it = extra_precise_rows_.find(u.before.fact_id);
      if (it != extra_precise_rows_.end() && u.before.IsPrecise(k)) {
        IOLAP_ASSIGN_OR_RETURN(EdbRecord rec,
                               build_result_.edb.Get(pool, it->second));
        if (listener_ != nullptr) listener_->OnRemove(rec);
        rec.measure = u.new_measure;
        IOLAP_RETURN_IF_ERROR(
            build_result_.edb.Put(pool, it->second, rec));
        if (listener_ != nullptr) listener_->OnAdd(rec);
      }
    }
  }
  IOLAP_RETURN_IF_ERROR(pool.FlushAll());

  stats->seconds += watch.ElapsedSeconds();
  stats->io += env_->disk().stats() - io_before;
  return Status::Ok();
}

Status MaintenanceManager::InsertFacts(const std::vector<FactRecord>& inserts,
                                       MaintenanceStats* stats) {
  TraceSpan span("maint.insert_facts");
  span.AddArg("inserts", static_cast<int64_t>(inserts.size()));
  const int k = schema_->num_dims();
  BufferPool& pool = env_->pool();
  Stopwatch watch;
  IoStats io_before = env_->disk().stats();
  stats->inserts_applied += static_cast<int64_t>(inserts.size());

  std::set<int64_t> affected;
  std::map<LeafKey, double> delta_adjust;
  std::vector<CellRecord> candidates;

  // ---- Imprecise inserts first: they may merge components.
  for (const FactRecord& f : inserts) {
    if (f.IsPrecise(k)) continue;
    stats->touched_boxes.push_back(RegionRect(*schema_, f));
    std::vector<int64_t> hits;
    IOLAP_RETURN_IF_ERROR(rtree_->Search(RegionRect(*schema_, f), &hits));
    std::vector<int64_t> alive_hits;
    for (int64_t h : hits) {
      if (directory_[h].alive) {
        alive_hits.push_back(h);
        stats->touched_boxes.push_back(directory_[h].bbox);
      }
    }

    MaintComponent merged;
    for (int64_t h : alive_hits) {
      MaintComponent& old = directory_[h];
      merged.cell_segments.insert(merged.cell_segments.end(),
                                  old.cell_segments.begin(),
                                  old.cell_segments.end());
      merged.entry_segments.insert(merged.entry_segments.end(),
                                   old.entry_segments.begin(),
                                   old.entry_segments.end());
      merged.overlay_cells.insert(merged.overlay_cells.end(),
                                  old.overlay_cells.begin(),
                                  old.overlay_cells.end());
      merged.overlay_entries.insert(merged.overlay_entries.end(),
                                    old.overlay_entries.begin(),
                                    old.overlay_entries.end());
      merged.deleted.insert(old.deleted.begin(), old.deleted.end());
      merged.edb_ranges.insert(merged.edb_ranges.end(),
                               old.edb_ranges.begin(), old.edb_ranges.end());
      old.alive = false;
      bool removed_ok = false;
      IOLAP_RETURN_IF_ERROR(rtree_->Remove(old.bbox, h, &removed_ok));
      affected.erase(h);
    }
    if (alive_hits.size() > 1) {
      stats->components_merged +=
          static_cast<int64_t>(alive_hits.size()) - 1;
    }
    // Absorb covered cells that lived outside every component.
    IOLAP_RETURN_IF_ERROR(AbsorbCoveredCells(f, &merged.overlay_cells));
    // The new fact itself.
    ImpreciseRecord rec;
    rec.fact_id = f.fact_id;
    rec.measure = f.measure;
    std::memcpy(rec.node, f.node, sizeof(rec.node));
    std::memcpy(rec.level, f.level, sizeof(rec.level));
    merged.overlay_entries.push_back(rec);
    // Bounding box: union of everything merged plus the new region.
    Rect bbox = RegionRect(*schema_, f);
    for (int64_t h : alive_hits) {
      const Rect& old = directory_[h].bbox;
      for (int d = 0; d < k; ++d) {
        bbox.lo[d] = std::min(bbox.lo[d], old.lo[d]);
        bbox.hi[d] = std::max(bbox.hi[d], old.hi[d]);
      }
    }
    merged.bbox = bbox;
    int64_t id = static_cast<int64_t>(directory_.size());
    directory_.push_back(std::move(merged));
    IOLAP_RETURN_IF_ERROR(rtree_->Insert(directory_.back().bbox, id));
    affected.insert(id);
  }

  // ---- Precise inserts: adjust δ (or create cells) and append EDB rows.
  auto edb_appender = build_result_.edb.MakeAppender(pool);
  for (const FactRecord& f : inserts) {
    if (!f.IsPrecise(k)) continue;
    AllocationOptions policy = options_;
    const double contribution = policy.DeltaContribution(f);
    LeafKey key = LeafKeyOfPrecise(*schema_, f);

    bool found = false;
    for (CellRecord& cell : loose_cells_) {
      if (std::memcmp(cell.leaf, key.data(), sizeof(cell.leaf)) == 0) {
        cell.delta0 += contribution;
        cell.delta_prev = cell.delta0;
        found = true;
        break;
      }
    }
    if (!found) {
      IOLAP_ASSIGN_OR_RETURN(int64_t index, FindSingletonCell(key));
      if (index >= 0) {
        IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(pool, index));
        cell.delta0 += contribution;
        cell.delta_prev = cell.delta0;
        IOLAP_RETURN_IF_ERROR(data_.cells.Put(pool, index, cell));
        found = true;
      }
    }
    if (!found) {
      // Unknown cell: either inside a component (resolved by the pending
      // δ adjustment during fetch) or genuinely new (the candidate is
      // claimed by a covering component or becomes a loose cell).
      delta_adjust[key] += contribution;
      bool have_candidate = false;
      for (CellRecord& cell : candidates) {
        if (std::memcmp(cell.leaf, key.data(), sizeof(cell.leaf)) == 0) {
          cell.delta0 += contribution;
          cell.delta_prev = cell.delta0;
          have_candidate = true;
          break;
        }
      }
      if (!have_candidate) {
        CellRecord cell;
        std::memcpy(cell.leaf, key.data(), sizeof(cell.leaf));
        cell.delta0 = policy.DeltaBase() + contribution;
        cell.delta_prev = cell.delta0;
        candidates.push_back(cell);
      }
    }
    // The precise fact's own EDB row.
    EdbRecord row;
    row.fact_id = f.fact_id;
    row.measure = f.measure;
    row.weight = 1.0;
    std::memcpy(row.leaf, key.data(), sizeof(row.leaf));
    extra_precise_rows_[f.fact_id] = build_result_.edb.size();
    IOLAP_RETURN_IF_ERROR(edb_appender.Append(row));
    if (listener_ != nullptr) listener_->OnAdd(row);
    ++stats->edb_rows_appended;

    stats->touched_boxes.push_back(RegionRect(*schema_, f));
    std::vector<int64_t> hits;
    IOLAP_RETURN_IF_ERROR(rtree_->Search(RegionRect(*schema_, f), &hits));
    for (int64_t h : hits) {
      if (directory_[h].alive) {
        affected.insert(h);
        stats->touched_boxes.push_back(directory_[h].bbox);
      }
    }
  }
  edb_appender.Close();

  // If a candidate cell turns out adjacent (covered) to *several* affected
  // components, those components belong together — merge them first so the
  // claim below is unique (a rebuild would have found them connected).
  if (!candidates.empty()) {
    for (const CellRecord& cand : candidates) {
      std::vector<int64_t> covering;
      for (int64_t comp : affected) {
        if (!directory_[comp].alive) continue;
        bool covers = false;
        for (auto [begin, end] : directory_[comp].entry_segments) {
          auto cursor = data_.imprecise.Scan(pool, begin, end);
          ImpreciseRecord e;
          while (!cursor.done() && !covers) {
            IOLAP_RETURN_IF_ERROR(cursor.Next(&e));
            if (directory_[comp].deleted.count(e.fact_id) == 0 &&
                RegionCovers(*schema_, e.node, cand.leaf)) {
              covers = true;
            }
          }
          if (covers) break;
        }
        for (const ImpreciseRecord& e : directory_[comp].overlay_entries) {
          if (covers) break;
          if (directory_[comp].deleted.count(e.fact_id) == 0 &&
              RegionCovers(*schema_, e.node, cand.leaf)) {
            covers = true;
          }
        }
        if (covers) covering.push_back(comp);
      }
      if (covering.size() > 1) {
        // Merge all covering components into the first.
        MaintComponent& target = directory_[covering[0]];
        bool removed_ok = false;
        IOLAP_RETURN_IF_ERROR(
            rtree_->Remove(target.bbox, covering[0], &removed_ok));
        for (size_t i = 1; i < covering.size(); ++i) {
          MaintComponent& old = directory_[covering[i]];
          target.cell_segments.insert(target.cell_segments.end(),
                                      old.cell_segments.begin(),
                                      old.cell_segments.end());
          target.entry_segments.insert(target.entry_segments.end(),
                                       old.entry_segments.begin(),
                                       old.entry_segments.end());
          target.overlay_cells.insert(target.overlay_cells.end(),
                                      old.overlay_cells.begin(),
                                      old.overlay_cells.end());
          target.overlay_entries.insert(target.overlay_entries.end(),
                                        old.overlay_entries.begin(),
                                        old.overlay_entries.end());
          target.deleted.insert(old.deleted.begin(), old.deleted.end());
          target.edb_ranges.insert(target.edb_ranges.end(),
                                   old.edb_ranges.begin(),
                                   old.edb_ranges.end());
          for (int d = 0; d < k; ++d) {
            target.bbox.lo[d] = std::min(target.bbox.lo[d], old.bbox.lo[d]);
            target.bbox.hi[d] = std::max(target.bbox.hi[d], old.bbox.hi[d]);
          }
          old.alive = false;
          IOLAP_RETURN_IF_ERROR(
              rtree_->Remove(old.bbox, covering[i], &removed_ok));
          affected.erase(covering[i]);
          ++stats->components_merged;
        }
        IOLAP_RETURN_IF_ERROR(rtree_->Insert(target.bbox, covering[0]));
      }
    }
  }

  // ---- Re-allocate every affected component.
  for (int64_t comp : affected) {
    if (!directory_[comp].alive) continue;
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, &candidates, stats));
  }
  // Unclaimed candidates are genuinely isolated new cells.
  for (const CellRecord& cell : candidates) {
    LeafKey key{};
    std::memcpy(key.data(), cell.leaf, sizeof(cell.leaf));
    delta_adjust.erase(key);
    loose_cells_.push_back(cell);
  }
  IOLAP_RETURN_IF_ERROR(pool.FlushAll());

  stats->seconds += watch.ElapsedSeconds();
  stats->io += env_->disk().stats() - io_before;
  return Status::Ok();
}

Status MaintenanceManager::DeleteFacts(const std::vector<FactRecord>& deletes,
                                       MaintenanceStats* stats) {
  TraceSpan span("maint.delete_facts");
  span.AddArg("deletes", static_cast<int64_t>(deletes.size()));
  const int k = schema_->num_dims();
  BufferPool& pool = env_->pool();
  Stopwatch watch;
  IoStats io_before = env_->disk().stats();
  stats->deletes_applied += static_cast<int64_t>(deletes.size());

  std::set<int64_t> affected;
  std::map<LeafKey, double> delta_adjust;
  std::set<FactId> deleted_precise;

  for (const FactRecord& f : deletes) {
    stats->touched_boxes.push_back(RegionRect(*schema_, f));
    std::vector<int64_t> hits;
    IOLAP_RETURN_IF_ERROR(rtree_->Search(RegionRect(*schema_, f), &hits));
    std::vector<int64_t> alive_hits;
    for (int64_t h : hits) {
      if (directory_[h].alive) {
        alive_hits.push_back(h);
        stats->touched_boxes.push_back(directory_[h].bbox);
      }
    }
    if (f.IsPrecise(k)) {
      deleted_precise.insert(f.fact_id);
      AllocationOptions policy = options_;
      const double contribution = policy.DeltaContribution(f);
      LeafKey key = LeafKeyOfPrecise(*schema_, f);
      bool found = false;
      for (CellRecord& cell : loose_cells_) {
        if (std::memcmp(cell.leaf, key.data(), sizeof(cell.leaf)) == 0) {
          cell.delta0 -= contribution;
          cell.delta_prev = cell.delta0;
          found = true;
          break;
        }
      }
      if (!found) {
        IOLAP_ASSIGN_OR_RETURN(int64_t index, FindSingletonCell(key));
        if (index >= 0) {
          IOLAP_ASSIGN_OR_RETURN(CellRecord cell,
                                 data_.cells.Get(pool, index));
          cell.delta0 -= contribution;
          cell.delta_prev = cell.delta0;
          IOLAP_RETURN_IF_ERROR(data_.cells.Put(pool, index, cell));
          found = true;
        }
      }
      if (!found) {
        delta_adjust[key] -= contribution;  // lives inside a component
      }
      // Remove the fact's own EDB row.
      auto it = extra_precise_rows_.find(f.fact_id);
      if (it != extra_precise_rows_.end()) {
        if (listener_ != nullptr) {
          IOLAP_ASSIGN_OR_RETURN(EdbRecord old,
                                 build_result_.edb.Get(pool, it->second));
          listener_->OnRemove(old);
        }
        IOLAP_RETURN_IF_ERROR(
            build_result_.edb.Put(pool, it->second, Tombstone()));
        extra_precise_rows_.erase(it);
        ++stats->edb_rows_tombstoned;
        deleted_precise.erase(f.fact_id);  // already handled
      }
    } else {
      // Tombstone the imprecise fact in whichever component holds it.
      for (int64_t h : alive_hits) {
        directory_[h].deleted.insert(f.fact_id);
      }
    }
    for (int64_t h : alive_hits) affected.insert(h);
  }

  // Batch-tombstone deleted precise rows in the build prefix.
  if (!deleted_precise.empty()) {
    auto cursor = build_result_.edb.MutableScan(
        pool, 0, std::min(build_result_.num_precise, build_result_.edb.size()));
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Read(&rec));
      if (deleted_precise.count(rec.fact_id) != 0 &&
          !(rec.weight == 0 && rec.fact_id == -1)) {
        if (listener_ != nullptr) listener_->OnRemove(rec);
        IOLAP_RETURN_IF_ERROR(cursor.Write(Tombstone()));
        ++stats->edb_rows_tombstoned;
      }
      cursor.Advance();
    }
  }

  for (int64_t comp : affected) {
    if (!directory_[comp].alive) continue;
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, nullptr, stats));
  }
  IOLAP_RETURN_IF_ERROR(pool.FlushAll());

  stats->seconds += watch.ElapsedSeconds();
  stats->io += env_->disk().stats() - io_before;
  return Status::Ok();
}

Result<int64_t> MaintenanceManager::CompactEdb() {
  TraceSpan span("maint.compact_edb");
  BufferPool& pool = env_->pool();
  IOLAP_ASSIGN_OR_RETURN(auto compact, TypedFile<EdbRecord>::Create(
                                           env_->disk(), "edb_compact"));
  // Old index -> new index for every surviving row, tracked per range
  // boundary: collect all live directory ranges.
  struct RangeRef {
    int64_t begin, end;
    int64_t comp;
    size_t range_index;
  };
  std::vector<RangeRef> refs;
  for (size_t i = 0; i < directory_.size(); ++i) {
    if (!directory_[i].alive) continue;
    for (size_t r = 0; r < directory_[i].edb_ranges.size(); ++r) {
      refs.push_back(RangeRef{directory_[i].edb_ranges[r].first,
                              directory_[i].edb_ranges[r].second,
                              static_cast<int64_t>(i), r});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const RangeRef& a, const RangeRef& b) {
              return a.begin < b.begin;
            });

  int64_t removed = 0;
  {
    auto appender = compact.MakeAppender(pool);
    auto cursor = build_result_.edb.Scan(pool);
    EdbRecord rec;
    size_t ref = 0;
    int64_t old_index = 0;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
      while (ref < refs.size() && refs[ref].end <= old_index) ++ref;
      bool in_range =
          ref < refs.size() && old_index >= refs[ref].begin;
      bool live = !(rec.weight == 0 && rec.fact_id == -1);
      if (live) {
        if (in_range && old_index == refs[ref].begin) {
          directory_[refs[ref].comp].edb_ranges[refs[ref].range_index].first =
              compact.size();
        }
        auto it = extra_precise_rows_.find(rec.fact_id);
        if (it != extra_precise_rows_.end() && it->second == old_index) {
          it->second = compact.size();
        }
        IOLAP_RETURN_IF_ERROR(appender.Append(rec));
        if (in_range) {
          directory_[refs[ref].comp].edb_ranges[refs[ref].range_index].second =
              compact.size();
        }
      } else {
        ++removed;
      }
      ++old_index;
    }
    appender.Close();
  }
  // Ranges that begin with a tombstone never updated `first`; normalize any
  // empty ranges (all rows dead).
  // (Rows inside a live range are never tombstoned except at its tail, so
  // the begin/end updates above are sufficient for non-empty ranges.)
  IOLAP_RETURN_IF_ERROR(pool.EvictFile(build_result_.edb.file_id()));
  IOLAP_RETURN_IF_ERROR(env_->disk().DeleteFile(build_result_.edb.file_id()));
  build_result_.edb = compact;
  return removed;
}

}  // namespace iolap
