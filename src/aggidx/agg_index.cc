#include "aggidx/agg_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace iolap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cells accumulated in the in-memory overlay (cells that appeared after
/// the last build) before a commit leaves the index stale for a rebuild.
constexpr int64_t kMaxOverlayCells = 4096;

/// Whether a MIN/MAX probe may merge these extremes: false for the
/// removal mark (-inf, +inf). A real measure of ±inf is refused too; the
/// caller's scan answers it.
bool ExtremesKnown(double min, double max) {
  return min != -kInf && max != kInf;
}

bool IsMinMax(AggregateFunc func) {
  return func == AggregateFunc::kMin || func == AggregateFunc::kMax;
}

/// Canonical (dimension-0-major) three-way comparison of cell keys. Leaf
/// ids are non-negative, but compare as signed ints — never memcmp, which
/// would order little-endian byte images, not values.
int CompareKeys(const int32_t* a, const int32_t* b) {
  for (int d = 0; d < kMaxDims; ++d) {
    if (a[d] != b[d]) return a[d] < b[d] ? -1 : 1;
  }
  return 0;
}

/// Folds a subtree entry's partials (and bbox) into a parent entry.
void MergeEntryInto(AggIndexEntry* parent, const AggIndexEntry& child) {
  for (int d = 0; d < kMaxDims; ++d) {
    parent->bbox.lo[d] = std::min(parent->bbox.lo[d], child.bbox.lo[d]);
    parent->bbox.hi[d] = std::max(parent->bbox.hi[d], child.bbox.hi[d]);
  }
  parent->sum += child.sum;
  parent->count += child.count;
  parent->min = std::min(parent->min, child.min);
  parent->max = std::max(parent->max, child.max);
}

}  // namespace

AggIndex::AggIndex(StorageEnv* env, const StarSchema* schema,
                   const TypedFile<EdbRecord>* edb)
    : env_(env),
      schema_(schema),
      edb_(edb),
      probes_counter_(GlobalCounter("aggidx.probes")),
      nodes_read_counter_(GlobalCounter("aggidx.nodes_read")),
      builds_counter_(GlobalCounter("aggidx.builds")),
      refreshes_counter_(GlobalCounter("aggidx.refreshes")),
      patched_counter_(GlobalCounter("aggidx.cells_patched")),
      cells_gauge_(GlobalGauge("aggidx.cells")),
      pages_gauge_(GlobalGauge("aggidx.pages")) {}

Status AggIndex::Build() {
  std::lock_guard<std::mutex> lock(mu_);
  return BuildLocked(/*is_refresh=*/false);
}

Status AggIndex::EnsureBuiltLocked() const {
  if (built_ && !stale_) return Status::Ok();
  return Status::Unavailable("aggregate index unbuilt or stale");
}

Status AggIndex::RebuildIfStale() {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_ && !stale_) return Status::Ok();
  return BuildLocked(/*is_refresh=*/built_);
}

Status AggIndex::WritePageLocked(int64_t page,
                                 const AggIndexNodeHeader& header,
                                 const AggIndexEntry* entries) {
  IOLAP_ASSIGN_OR_RETURN(int64_t file_pages, env_->disk().SizeInPages(file_));
  PageGuard guard;
  if (page < file_pages) {
    IOLAP_ASSIGN_OR_RETURN(guard, env_->pool().Pin(file_, page));
  } else {
    IOLAP_ASSIGN_OR_RETURN(guard, env_->pool().PinNew(file_, page));
  }
  std::memset(guard.data(), 0, kPageSize);
  std::memcpy(guard.data(), &header, sizeof(header));
  std::memcpy(guard.data() + sizeof(header), entries,
              header.num_entries * sizeof(AggIndexEntry));
  guard.MarkDirty();
  return Status::Ok();
}

Status AggIndex::BuildLocked(bool is_refresh) {
  TraceSpan span(is_refresh ? "aggidx.refresh" : "aggidx.build");
  if (file_ == kInvalidFileId) {
    IOLAP_ASSIGN_OR_RETURN(file_, env_->disk().CreateFile("aggidx"));
  }

  // One EDB pass: fold live rows into per-cell partials, canonically
  // ordered. Memory is O(|occupied cells|) — the same bound the
  // maintenance directory already carries.
  std::map<LeafKey, Partials> cells;
  auto cursor = edb_->Scan(env_->pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    LeafKey key{};
    std::memcpy(key.data(), rec.leaf, sizeof(int32_t) * kMaxDims);
    auto [it, inserted] = cells.try_emplace(key);
    if (inserted) {
      it->second.min = kInf;
      it->second.max = -kInf;
    }
    it->second.sum += rec.weight * rec.measure;
    it->second.count += rec.weight;
    it->second.min = std::min(it->second.min, rec.measure);
    it->second.max = std::max(it->second.max, rec.measure);
  }

  // Bottom-up bulk load, pages 100% packed: the tree is static between
  // rebuilds (post-build cells live in the overlay), so there is no need
  // for insertion slack.
  std::vector<AggIndexEntry> level;
  level.reserve(cells.size());
  for (const auto& [key, p] : cells) {
    AggIndexEntry e;
    std::memcpy(e.key, key.data(), sizeof(e.key));
    for (int d = 0; d < kMaxDims; ++d) {
      e.bbox.lo[d] = key[d];
      e.bbox.hi[d] = key[d];
    }
    e.sum = p.sum;
    e.count = p.count;
    e.min = p.min;
    e.max = p.max;
    e.child = -1;
    level.push_back(e);
  }

  int64_t next_page = 0;
  int32_t tree_level = 0;
  root_ = -1;
  while (!level.empty()) {
    std::vector<AggIndexEntry> parents;
    const int64_t n = static_cast<int64_t>(level.size());
    for (int64_t i = 0; i < n; i += kAggIndexEntriesPerPage) {
      const int64_t cnt = std::min(n - i, kAggIndexEntriesPerPage);
      AggIndexNodeHeader header;
      header.num_entries = static_cast<int32_t>(cnt);
      header.level = tree_level;
      const int64_t page = next_page++;
      IOLAP_RETURN_IF_ERROR(WritePageLocked(page, header, &level[i]));
      AggIndexEntry parent = level[i];  // key = first cell of the run
      parent.child = page;
      for (int64_t j = 1; j < cnt; ++j) MergeEntryInto(&parent, level[i + j]);
      parents.push_back(parent);
    }
    ++tree_level;
    if (parents.size() == 1) {
      root_ = parents[0].child;
      break;
    }
    level = std::move(parents);
  }
  IOLAP_RETURN_IF_ERROR(env_->pool().FlushFile(file_));

  num_pages_ = next_page;
  stats_.cells = static_cast<int64_t>(cells.size());
  stats_.pages = num_pages_;
  stats_.height = tree_level;
  if (is_refresh) {
    ++stats_.refreshes;
    if (refreshes_counter_ != nullptr) refreshes_counter_->Add(1);
  } else {
    ++stats_.builds;
    if (builds_counter_ != nullptr) builds_counter_->Add(1);
  }
  if (cells_gauge_ != nullptr) cells_gauge_->Set(stats_.cells);
  if (pages_gauge_ != nullptr) pages_gauge_->Set(stats_.pages);
  span.AddArg("cells", stats_.cells);
  span.AddArg("pages", stats_.pages);

  overlay_.clear();
  built_ = true;
  stale_ = false;
  return Status::Ok();
}

Status AggIndex::QueryNodeLocked(int64_t page, const Rect& query,
                                 bool minmax, AggregateResult* acc) {
  ++stats_.nodes_read;
  if (nodes_read_counter_ != nullptr) nodes_read_counter_->Add(1);
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_->pool().Pin(file_, page));
  AggIndexNodeHeader header;
  std::memcpy(&header, guard.data(), sizeof(header));
  const int k = schema_->num_dims();
  for (int32_t i = 0; i < header.num_entries; ++i) {
    AggIndexEntry e;
    std::memcpy(&e, guard.data() + sizeof(header) + i * sizeof(e), sizeof(e));
    if (!RectsIntersect(e.bbox, query, k)) continue;
    if (RectContains(query, e.bbox, k)) {
      if (minmax && !ExtremesKnown(e.min, e.max)) {
        return Status::Unavailable("min/max unknown since a removal");
      }
      acc->sum += e.sum;
      acc->count += e.count;
      acc->min = std::min(acc->min, e.min);
      acc->max = std::max(acc->max, e.max);
      continue;
    }
    // A leaf entry's bbox is a single cell, so intersection implies
    // containment; only internal entries can straddle the query boundary.
    if (header.level > 0) {
      IOLAP_RETURN_IF_ERROR(QueryNodeLocked(e.child, query, minmax, acc));
    }
  }
  return Status::Ok();
}

Status AggIndex::QueryRectLocked(const Rect& query, bool minmax,
                                 AggregateResult* acc) {
  if (root_ >= 0) {
    IOLAP_RETURN_IF_ERROR(QueryNodeLocked(root_, query, minmax, acc));
  }
  const int k = schema_->num_dims();
  for (const auto& [key, p] : overlay_) {
    bool inside = true;
    for (int d = 0; d < k; ++d) {
      if (key[d] < query.lo[d] || key[d] > query.hi[d]) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    if (minmax && !ExtremesKnown(p.min, p.max)) {
      return Status::Unavailable("min/max unknown since a removal");
    }
    acc->sum += p.sum;
    acc->count += p.count;
    acc->min = std::min(acc->min, p.min);
    acc->max = std::max(acc->max, p.max);
  }
  return Status::Ok();
}

Result<std::vector<AggregateResult>> AggIndex::RollUp(
    const QueryRegion& region, int dim, int level, AggregateFunc func) {
  if (dim >= 0) IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_RETURN_IF_ERROR(EnsureBuiltLocked());
  std::vector<AggregateResult> groups(RollUpGroups(*schema_, dim, level));
  for (size_t g = 0; g < groups.size(); ++g) {
    // Each group region is still an axis-aligned box: one index probe.
    QueryRegion group;
    if (RollUpGroupRegion(*schema_, region, dim, level, g, &group)) {
      IOLAP_RETURN_IF_ERROR(QueryRectLocked(RegionToRect(*schema_, group),
                                            IsMinMax(func), &groups[g]));
    }
    FinalizeAggregate(&groups[g], func);
  }
  stats_.probes += static_cast<int64_t>(groups.size());
  if (probes_counter_ != nullptr) {
    probes_counter_->Add(static_cast<int64_t>(groups.size()));
  }
  return groups;
}

void AggIndex::OnAdd(const EdbRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  LeafKey key{};
  std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
  CellDelta& d = pending_[key];
  d.dsum += rec.weight * rec.measure;
  d.dcount += rec.weight;
  if (!d.has_add) {
    d.add_min = rec.measure;
    d.add_max = rec.measure;
    d.has_add = true;
  } else {
    d.add_min = std::min(d.add_min, rec.measure);
    d.add_max = std::max(d.add_max, rec.measure);
  }
}

void AggIndex::OnRemove(const EdbRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  LeafKey key{};
  std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
  CellDelta& d = pending_[key];
  d.dsum -= rec.weight * rec.measure;
  d.dcount -= rec.weight;
  d.removed = true;
}

Status AggIndex::PatchCellLocked(const LeafKey& key, const CellDelta& delta,
                                 bool* found) {
  *found = false;
  if (root_ < 0) return Status::Ok();

  // Descend by canonical key: entries are key-sorted and partition the
  // sorted cell sequence into contiguous runs, so at every node the only
  // candidate is the last entry whose key <= the target's.
  struct Loc {
    int64_t page;
    int32_t slot;
  };
  Loc path[16];
  int depth = 0;
  int64_t page = root_;
  for (;;) {
    ++stats_.nodes_read;
    if (nodes_read_counter_ != nullptr) nodes_read_counter_->Add(1);
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_->pool().Pin(file_, page));
    AggIndexNodeHeader header;
    std::memcpy(&header, guard.data(), sizeof(header));
    int32_t candidate = -1;
    AggIndexEntry e;
    for (int32_t i = 0; i < header.num_entries; ++i) {
      AggIndexEntry cur;
      std::memcpy(&cur, guard.data() + sizeof(header) + i * sizeof(cur),
                  sizeof(cur));
      if (CompareKeys(cur.key, key.data()) > 0) break;
      candidate = i;
      e = cur;
    }
    if (candidate < 0) return Status::Ok();  // key precedes the whole tree
    if (depth == 16) {
      return Status::Internal("aggidx tree deeper than any packed layout");
    }
    path[depth++] = Loc{page, candidate};
    if (header.level == 0) {
      if (CompareKeys(e.key, key.data()) != 0) return Status::Ok();
      break;
    }
    page = e.child;
  }

  // Patch the partials along the whole root-to-leaf path. Additive partials
  // (sum, count) take the delta exactly; min/max widen with additions, and
  // a removal marks every entry on the path.
  for (int i = 0; i < depth; ++i) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->pool().Pin(file_, path[i].page));
    AggIndexEntry e;
    std::byte* slot = guard.data() + sizeof(AggIndexNodeHeader) +
                      path[i].slot * sizeof(AggIndexEntry);
    std::memcpy(&e, slot, sizeof(e));
    e.sum += delta.dsum;
    e.count += delta.dcount;
    delta.FoldExtremes(&e.min, &e.max);
    std::memcpy(slot, &e, sizeof(e));
    guard.MarkDirty();
  }
  ++stats_.cells_patched;
  if (patched_counter_ != nullptr) patched_counter_->Add(1);
  *found = true;
  return Status::Ok();
}

void AggIndex::CellDelta::FoldExtremes(double* min, double* max) const {
  if (has_add) {
    *min = std::min(*min, add_min);
    *max = std::max(*max, add_max);
  }
  if (removed) {
    // Non-subtractive: the extremes stay unknown until the next rebuild
    // (no later addition can narrow -inf / +inf back).
    *min = -kInf;
    *max = kInf;
  }
}

Status AggIndex::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_ || stale_) {
    // Nothing to patch — the next rebuild reads the already-mutated EDB,
    // which subsumes these deltas.
    pending_.clear();
    return Status::Ok();
  }
  for (const auto& [key, delta] : pending_) {
    bool found = false;
    const Status s = PatchCellLocked(key, delta, &found);
    if (!s.ok()) {
      InvalidateLocked();
      return s;
    }
    if (found) continue;
    // Cell not in the packed tree: merge into the overlay, under the same
    // marking rule as tree entries.
    auto [it, inserted] = overlay_.try_emplace(key);
    Partials& p = it->second;
    if (inserted) {
      p.min = kInf;
      p.max = -kInf;
    }
    p.sum += delta.dsum;
    p.count += delta.dcount;
    delta.FoldExtremes(&p.min, &p.max);
  }
  pending_.clear();
  if (static_cast<int64_t>(overlay_.size()) > kMaxOverlayCells) {
    stale_ = true;  // overlay too big to stay an overlay; rebuild
  }
  return Status::Ok();
}

void AggIndex::InvalidateLocked() {
  pending_.clear();
  overlay_.clear();
  stale_ = true;
}

void AggIndex::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateLocked();
}

AggIndex::Stats AggIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.overlay_cells = static_cast<int64_t>(overlay_.size());
  return s;
}

}  // namespace iolap
