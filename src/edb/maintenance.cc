#include "edb/maintenance.h"

#include <algorithm>
#include <cstring>

#include "alloc/in_memory.h"
#include "alloc/preprocess.h"
#include "common/stopwatch.h"
#include "edb/query.h"
#include "obs/trace.h"

namespace iolap {

namespace {

std::array<int32_t, kMaxDims> LeafKeyOfPrecise(const StarSchema& schema,
                                               const FactRecord& fact) {
  std::array<int32_t, kMaxDims> key{};
  for (int d = 0; d < schema.num_dims(); ++d) {
    key[d] = schema.dim(d).leaf_begin(fact.node[d]);
  }
  return key;
}

std::array<int32_t, kMaxDims> LeafKeyOf(const int32_t* leaf) {
  std::array<int32_t, kMaxDims> key{};
  std::memcpy(key.data(), leaf, sizeof(key));
  return key;
}

bool LeafLess(const int32_t* a, const int32_t* b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return false;
}

constexpr int32_t kAbsorbedCcid = -2;

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// The bookkeeping every mutation batch shares: a trace span carrying the
/// batch size and, once the batch succeeds, a pool flush plus the batch's
/// wall time, counted I/O and R-tree node reads (searches, inserts and
/// removes alike) charged to the stats.
class BatchScope {
 public:
  BatchScope(StorageEnv& env, const PagedRTree& rtree, const char* name,
             const char* arg, size_t size)
      : env_(env),
        rtree_(rtree),
        span_(name),
        io_before_(env.disk().stats()),
        nodes_before_(rtree.nodes_accessed()) {
    span_.AddArg(arg, static_cast<int64_t>(size));
  }

  Status Finish(MaintenanceStats* stats) {
    IOLAP_RETURN_IF_ERROR(env_.pool().FlushAll());
    stats->seconds += watch_.ElapsedSeconds();
    stats->io += env_.disk().stats() - io_before_;
    stats->rtree_nodes_accessed += rtree_.nodes_accessed() - nodes_before_;
    return Status::Ok();
  }

 private:
  StorageEnv& env_;
  const PagedRTree& rtree_;
  TraceSpan span_;
  Stopwatch watch_;
  IoStats io_before_;
  int64_t nodes_before_;
};

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

Result<int64_t> MaintenanceManager::SingletonLowerBound(const LeafKey& key) {
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
  return lo;
}

Result<int64_t> MaintenanceManager::FindSingletonCell(const LeafKey& key) {
  IOLAP_ASSIGN_OR_RETURN(int64_t lo, SingletonLowerBound(key));
  if (lo >= data_.cells.size()) return int64_t{-1};
  IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(env_->pool(), lo));
  if (LeafKeyOf(cell.leaf) != key || cell.ccid == kAbsorbedCcid) {
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
  IOLAP_ASSIGN_OR_RETURN(int64_t lo, SingletonLowerBound(start));
  auto cursor = data_.cells.MutableScan(env_->pool(), lo, data_.cells.size());
  CellRecord cell;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
    if (LeafLess(end.data(), cell.leaf, k)) break;  // past the region's range
    if (cell.ccid == -1 && RegionCovers(*schema_, fact.node, cell.leaf)) {
      out->push_back(cell);
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
    const LeafKey key = LeafKeyOf(cell->leaf);
    auto it = delta_adjust->find(key);
    if (it == delta_adjust->end()) return false;
    cell->delta0 += it->second;
    delta_adjust->erase(it);
    if (candidate_cells != nullptr) {
      candidate_cells->erase(
          std::remove_if(candidate_cells->begin(), candidate_cells->end(),
                         [&](const CellRecord& cand) {
                           return LeafKeyOf(cand.leaf) == key;
                         }),
          candidate_cells->end());
    }
    return true;
  };
  auto fetch = [&](CellRecord cell) {
    cell.delta_prev = cell.delta0;  // fresh EM start, as a rebuild would
    present.insert(LeafKeyOf(cell.leaf));
    cells.push_back(cell);
  };
  for (auto [begin, end] : c.cell_segments) {
    auto cursor = data_.cells.MutableScan(pool, begin, end);
    CellRecord cell;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
      if (apply_adjust(&cell)) {
        IOLAP_RETURN_IF_ERROR(cursor.Write(cell));
      }
      fetch(cell);
      cursor.Advance();
    }
  }
  for (CellRecord& overlay : c.overlay_cells) {
    apply_adjust(&overlay);  // persists in the directory's overlay copy
    fetch(overlay);
  }
  // Candidate cells join the fetch unless already present. They are
  // identified by leaf key afterwards (MemoryAllocator sorts its cells).
  const size_t candidate_start = cells.size();
  std::vector<LeafKey> candidate_keys;
  if (candidate_cells != nullptr) {
    for (CellRecord cell : *candidate_cells) {
      const LeafKey key = LeafKeyOf(cell.leaf);
      if (present.count(key) != 0) continue;
      cell.delta_prev = cell.delta0;
      cells.push_back(cell);
      candidate_keys.push_back(key);
    }
  }

  // ---- Fetch entries (skip tombstoned facts).
  std::vector<ImpreciseRecord> entries;
  IOLAP_RETURN_IF_ERROR(ForEachLiveEntry(c, [&](const ImpreciseRecord& e) {
    entries.push_back(e);
    return true;
  }));
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
        auto it = candidate_pos.find(LeafKeyOf(ma.cells()[ci].leaf));
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
                           auto it = candidate_pos.find(LeafKeyOf(cand.leaf));
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
        if (old.IsTombstone()) continue;
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
      IOLAP_RETURN_IF_ERROR(
          build_result_.edb.Put(pool, at, EdbRecord::Tombstone()));
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

Status MaintenanceManager::ForEachLiveEntry(
    const MaintComponent& c,
    const std::function<bool(const ImpreciseRecord&)>& fn) {
  for (auto [begin, end] : c.entry_segments) {
    auto cursor = data_.imprecise.Scan(env_->pool(), begin, end);
    ImpreciseRecord e;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&e));
      if (c.deleted.count(e.fact_id) == 0 && !fn(e)) return Status::Ok();
    }
  }
  for (const ImpreciseRecord& e : c.overlay_entries) {
    if (c.deleted.count(e.fact_id) == 0 && !fn(e)) break;
  }
  return Status::Ok();
}

Status MaintenanceManager::AliveOverlaps(const FactRecord& fact,
                                         MaintenanceStats* stats,
                                         std::vector<int64_t>* ids) {
  const Rect rect = FactRegionToRect(*schema_, fact);
  stats->touched_boxes.push_back(rect);
  ids->clear();
  IOLAP_RETURN_IF_ERROR(rtree_->Search(rect, ids));
  ids->erase(std::remove_if(ids->begin(), ids->end(),
                            [&](int64_t id) { return !directory_[id].alive; }),
             ids->end());
  for (int64_t id : *ids) stats->touched_boxes.push_back(directory_[id].bbox);
  return Status::Ok();
}

Status MaintenanceManager::MergeComponents(int64_t into,
                                           const std::vector<int64_t>& from) {
  const int k = schema_->num_dims();
  MaintComponent& target = directory_[into];
  for (int64_t id : from) {
    MaintComponent& old = directory_[id];
    Append(&target.cell_segments, old.cell_segments);
    Append(&target.entry_segments, old.entry_segments);
    Append(&target.overlay_cells, old.overlay_cells);
    Append(&target.overlay_entries, old.overlay_entries);
    target.deleted.insert(old.deleted.begin(), old.deleted.end());
    Append(&target.edb_ranges, old.edb_ranges);
    for (int d = 0; d < k; ++d) {
      target.bbox.lo[d] = std::min(target.bbox.lo[d], old.bbox.lo[d]);
      target.bbox.hi[d] = std::max(target.bbox.hi[d], old.bbox.hi[d]);
    }
    old.alive = false;
    bool removed = false;
    IOLAP_RETURN_IF_ERROR(rtree_->Remove(old.bbox, id, &removed));
  }
  return rtree_->Insert(target.bbox, into);
}

Result<bool> MaintenanceManager::ShiftCellDelta(const LeafKey& key,
                                                double shift) {
  for (CellRecord& cell : loose_cells_) {
    if (LeafKeyOf(cell.leaf) == key) {
      cell.delta0 += shift;
      cell.delta_prev = cell.delta0;
      return true;
    }
  }
  IOLAP_ASSIGN_OR_RETURN(int64_t index, FindSingletonCell(key));
  if (index < 0) return false;
  BufferPool& pool = env_->pool();
  IOLAP_ASSIGN_OR_RETURN(CellRecord cell, data_.cells.Get(pool, index));
  cell.delta0 += shift;
  cell.delta_prev = cell.delta0;
  IOLAP_RETURN_IF_ERROR(data_.cells.Put(pool, index, cell));
  return true;
}

Status MaintenanceManager::RewritePreciseRows(std::map<FactId, double> measures,
                                              bool tombstone,
                                              MaintenanceStats* stats) {
  BufferPool& pool = env_->pool();
  auto rewrite = [&](EdbRecord* rec, double measure) {
    if (listener_ != nullptr) listener_->OnRemove(*rec);
    if (tombstone) {
      *rec = EdbRecord::Tombstone();
      ++stats->edb_rows_tombstoned;
    } else {
      rec->measure = measure;
      if (listener_ != nullptr) listener_->OnAdd(*rec);
      ++stats->edb_rows_rewritten;
    }
  };
  for (auto it = measures.begin(); it != measures.end();) {
    auto row = extra_precise_rows_.find(it->first);
    if (row == extra_precise_rows_.end()) {
      ++it;
      continue;
    }
    IOLAP_ASSIGN_OR_RETURN(EdbRecord rec,
                           build_result_.edb.Get(pool, row->second));
    rewrite(&rec, it->second);
    IOLAP_RETURN_IF_ERROR(build_result_.edb.Put(pool, row->second, rec));
    if (tombstone) extra_precise_rows_.erase(row);
    it = measures.erase(it);
  }
  if (measures.empty()) return Status::Ok();
  // Compaction may have shrunk the precise prefix; reading a few rows
  // beyond it is harmless (ids are unique, and a tombstone's -1 is none),
  // reading past EOF is not.
  auto cursor = build_result_.edb.MutableScan(
      pool, 0, std::min(build_result_.num_precise, build_result_.edb.size()));
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&rec));
    auto it = measures.find(rec.fact_id);
    if (it != measures.end()) {
      rewrite(&rec, it->second);
      IOLAP_RETURN_IF_ERROR(cursor.Write(rec));
    }
    cursor.Advance();
  }
  return Status::Ok();
}

Status MaintenanceManager::ApplyUpdates(const std::vector<FactUpdate>& updates,
                                        MaintenanceStats* stats) {
  BatchScope batch(*env_, *rtree_, "maint.apply_updates", "updates",
                   updates.size());
  const int k = schema_->num_dims();
  BufferPool& pool = env_->pool();
  stats->updates_applied += static_cast<int64_t>(updates.size());

  // Regions are immutable under update (Theorem 12): only the components
  // the updated facts overlap re-allocate, each over its new measures.
  std::unordered_map<FactId, double> imprecise_measures;
  std::map<FactId, double> precise_measures;
  std::map<LeafKey, double> delta_adjust;
  std::set<int64_t> affected;
  std::vector<int64_t> hits;
  for (const FactUpdate& u : updates) {
    if (u.before.IsPrecise(k)) {
      precise_measures[u.before.fact_id] = u.new_measure;
      if (options_.policy == PolicyKind::kMeasure) {
        delta_adjust[LeafKeyOfPrecise(*schema_, u.before)] +=
            u.new_measure - u.before.measure;
      }
    } else {
      imprecise_measures[u.before.fact_id] = u.new_measure;
    }
    IOLAP_RETURN_IF_ERROR(AliveOverlaps(u.before, stats, &hits));
    affected.insert(hits.begin(), hits.end());
  }

  for (int64_t comp : affected) {
    // New imprecise measures reach the stored entries before the
    // component's re-emission; they change no weights, only its rows.
    MaintComponent& c = directory_[comp];
    for (auto [begin, end] : c.entry_segments) {
      auto cursor = data_.imprecise.MutableScan(pool, begin, end);
      ImpreciseRecord e;
      while (!cursor.done()) {
        IOLAP_RETURN_IF_ERROR(cursor.Read(&e));
        auto it = imprecise_measures.find(e.fact_id);
        if (it != imprecise_measures.end()) {
          e.measure = it->second;
          IOLAP_RETURN_IF_ERROR(cursor.Write(e));
        }
        cursor.Advance();
      }
    }
    for (ImpreciseRecord& e : c.overlay_entries) {
      auto it = imprecise_measures.find(e.fact_id);
      if (it != imprecise_measures.end()) e.measure = it->second;
    }
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, nullptr, stats));
  }
  // δ shifts the re-allocations did not consume land outside every
  // component.
  for (const auto& [key, shift] : delta_adjust) {
    IOLAP_RETURN_IF_ERROR(ShiftCellDelta(key, shift).status());
  }
  IOLAP_RETURN_IF_ERROR(RewritePreciseRows(std::move(precise_measures),
                                           /*tombstone=*/false, stats));
  return batch.Finish(stats);
}

Status MaintenanceManager::InsertFacts(const std::vector<FactRecord>& inserts,
                                       MaintenanceStats* stats) {
  BatchScope batch(*env_, *rtree_, "maint.insert_facts", "inserts",
                   inserts.size());
  const int k = schema_->num_dims();
  BufferPool& pool = env_->pool();
  stats->inserts_applied += static_cast<int64_t>(inserts.size());

  std::set<int64_t> affected;
  std::map<LeafKey, double> delta_adjust;
  std::vector<CellRecord> candidates;
  std::vector<int64_t> hits;

  // ---- Imprecise inserts first: each becomes a new component that folds
  // in every component its region overlaps.
  for (const FactRecord& f : inserts) {
    if (f.IsPrecise(k)) continue;
    IOLAP_RETURN_IF_ERROR(AliveOverlaps(f, stats, &hits));
    const int64_t id = static_cast<int64_t>(directory_.size());
    directory_.emplace_back().bbox = FactRegionToRect(*schema_, f);
    IOLAP_RETURN_IF_ERROR(MergeComponents(id, hits));
    if (hits.size() > 1) {
      stats->components_merged += static_cast<int64_t>(hits.size()) - 1;
    }
    MaintComponent& merged = directory_[id];
    // Absorb covered cells that lived outside every component.
    IOLAP_RETURN_IF_ERROR(AbsorbCoveredCells(f, &merged.overlay_cells));
    ImpreciseRecord rec;
    rec.fact_id = f.fact_id;
    rec.measure = f.measure;
    std::memcpy(rec.node, f.node, sizeof(rec.node));
    std::memcpy(rec.level, f.level, sizeof(rec.level));
    merged.overlay_entries.push_back(rec);
    affected.insert(id);
  }

  // ---- Precise inserts: adjust δ (or create cells) and append EDB rows.
  auto edb_appender = build_result_.edb.MakeAppender(pool);
  for (const FactRecord& f : inserts) {
    if (!f.IsPrecise(k)) continue;
    const double contribution = options_.DeltaContribution(f);
    const LeafKey key = LeafKeyOfPrecise(*schema_, f);
    IOLAP_ASSIGN_OR_RETURN(bool shifted, ShiftCellDelta(key, contribution));
    if (!shifted) {
      // Unknown cell: either inside a component (resolved by the pending
      // δ adjustment during fetch) or genuinely new (the candidate is
      // claimed by a covering component or becomes a loose cell).
      delta_adjust[key] += contribution;
      auto cand = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const CellRecord& cell) { return LeafKeyOf(cell.leaf) == key; });
      if (cand != candidates.end()) {
        cand->delta0 += contribution;
        cand->delta_prev = cand->delta0;
      } else {
        CellRecord cell;
        std::memcpy(cell.leaf, key.data(), sizeof(cell.leaf));
        cell.delta0 = options_.DeltaBase() + contribution;
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

    IOLAP_RETURN_IF_ERROR(AliveOverlaps(f, stats, &hits));
    affected.insert(hits.begin(), hits.end());
  }
  edb_appender.Close();

  // If a candidate cell turns out covered by *several* affected
  // components, those components belong together — merge them first so the
  // claim below is unique (a rebuild would have found them connected).
  for (const CellRecord& cand : candidates) {
    std::vector<int64_t> covering;
    for (int64_t comp : affected) {
      if (!directory_[comp].alive) continue;
      bool covers = false;
      IOLAP_RETURN_IF_ERROR(
          ForEachLiveEntry(directory_[comp], [&](const ImpreciseRecord& e) {
            covers = RegionCovers(*schema_, e.node, cand.leaf);
            return !covers;
          }));
      if (covers) covering.push_back(comp);
    }
    if (covering.size() > 1) {
      bool removed = false;
      IOLAP_RETURN_IF_ERROR(rtree_->Remove(directory_[covering[0]].bbox,
                                           covering[0], &removed));
      IOLAP_RETURN_IF_ERROR(MergeComponents(
          covering[0], {covering.begin() + 1, covering.end()}));
      stats->components_merged += static_cast<int64_t>(covering.size()) - 1;
    }
  }

  // ---- Re-allocate every affected component that is still alive.
  for (int64_t comp : affected) {
    if (!directory_[comp].alive) continue;
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, &candidates, stats));
  }
  // Unclaimed candidates are genuinely isolated new cells.
  for (const CellRecord& cell : candidates) {
    delta_adjust.erase(LeafKeyOf(cell.leaf));
    loose_cells_.push_back(cell);
  }
  return batch.Finish(stats);
}

Status MaintenanceManager::DeleteFacts(const std::vector<FactRecord>& deletes,
                                       MaintenanceStats* stats) {
  BatchScope batch(*env_, *rtree_, "maint.delete_facts", "deletes",
                   deletes.size());
  const int k = schema_->num_dims();
  stats->deletes_applied += static_cast<int64_t>(deletes.size());

  std::set<int64_t> affected;
  std::map<LeafKey, double> delta_adjust;
  std::map<FactId, double> deleted_precise;
  std::vector<int64_t> hits;
  for (const FactRecord& f : deletes) {
    IOLAP_RETURN_IF_ERROR(AliveOverlaps(f, stats, &hits));
    if (f.IsPrecise(k)) {
      deleted_precise[f.fact_id] = 0;
      const double shift = -options_.DeltaContribution(f);
      const LeafKey key = LeafKeyOfPrecise(*schema_, f);
      IOLAP_ASSIGN_OR_RETURN(bool shifted, ShiftCellDelta(key, shift));
      if (!shifted) delta_adjust[key] += shift;  // lives inside a component
    } else {
      // Tombstone the imprecise fact in whichever component holds it.
      for (int64_t h : hits) directory_[h].deleted.insert(f.fact_id);
    }
    affected.insert(hits.begin(), hits.end());
  }
  IOLAP_RETURN_IF_ERROR(RewritePreciseRows(std::move(deleted_precise),
                                           /*tombstone=*/true, stats));

  for (int64_t comp : affected) {
    if (!directory_[comp].alive) continue;
    IOLAP_RETURN_IF_ERROR(
        ReallocateComponent(comp, &delta_adjust, nullptr, stats));
  }
  return batch.Finish(stats);
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
      if (!rec.IsTombstone()) {
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
  IOLAP_RETURN_IF_ERROR(pool.EvictFile(build_result_.edb.file_id()));
  IOLAP_RETURN_IF_ERROR(env_->disk().DeleteFile(build_result_.edb.file_id()));
  build_result_.edb = compact;
  return removed;
}

}  // namespace iolap
