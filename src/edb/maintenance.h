#ifndef IOLAP_EDB_MAINTENANCE_H_
#define IOLAP_EDB_MAINTENANCE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/allocator.h"
#include "alloc/dataset.h"
#include "common/result.h"
#include "rtree/paged_rtree.h"
#include "rtree/rect.h"
#include "storage/storage_env.h"

namespace iolap {

/// One measure update: `before` is the fact as currently stored (id, region
/// and old measure), `new_measure` replaces its measure. Regions are
/// immutable under update, so the component structure is unchanged
/// (Theorem 12) and EDB rows are rewritten in place.
struct FactUpdate {
  FactRecord before;
  double new_measure = 0;
};

/// Observer of row-level Extended Database changes. The maintenance layer
/// reports every *live* row it adds (appended or rewritten in place) and
/// every previously live row it removes (tombstoned or overwritten), so a
/// derived structure — e.g. the serve layer's aggregate index — can stay
/// consistent without rescanning. Tombstones themselves are never reported.
/// Callbacks run inside the mutation batch, before it is known to succeed;
/// implementations should buffer and only apply on an external commit
/// signal. CompactEdb is a logical no-op and fires nothing.
class EdbChangeListener {
 public:
  virtual ~EdbChangeListener() = default;
  virtual void OnAdd(const EdbRecord& rec) = 0;
  virtual void OnRemove(const EdbRecord& rec) = 0;
};

/// Fans one change stream out to several listeners (the MaintenanceManager
/// holds a single listener slot; the serve layer feeds both its aggregate
/// index and its synopsis store from it). Targets are registered once at
/// setup — not thread-safe against concurrent Add.
class EdbChangeFanout : public EdbChangeListener {
 public:
  void Add(EdbChangeListener* listener) { targets_.push_back(listener); }
  bool empty() const { return targets_.empty(); }
  void OnAdd(const EdbRecord& rec) override {
    for (EdbChangeListener* t : targets_) t->OnAdd(rec);
  }
  void OnRemove(const EdbRecord& rec) override {
    for (EdbChangeListener* t : targets_) t->OnRemove(rec);
  }

 private:
  std::vector<EdbChangeListener*> targets_;
};

struct MaintenanceStats {
  /// Bounding boxes (inclusive leaf coordinates) of everything this batch
  /// touched: each mutated fact's own region rect plus the pre-mutation
  /// bboxes of every alive component it overlapped. Every EDB row whose
  /// value changed (rewritten, appended, or tombstoned) lies inside one of
  /// these boxes — the serve layer's cache invalidates exactly the cached
  /// regions that intersect them. Appended across batches; not deduplicated.
  std::vector<Rect> touched_boxes;
  int64_t updates_applied = 0;
  int64_t inserts_applied = 0;
  int64_t deletes_applied = 0;
  int64_t components_touched = 0;
  int64_t components_merged = 0;
  int64_t tuples_fetched = 0;
  int64_t edb_rows_rewritten = 0;
  int64_t edb_rows_appended = 0;
  int64_t edb_rows_tombstoned = 0;
  int64_t rtree_nodes_accessed = 0;
  double seconds = 0;
  IoStats io;
};

/// The Extended Database maintenance layer of Section 9: builds D* with the
/// Transitive algorithm, keeps the component-sorted files plus an R-tree
/// over component bounding boxes, and applies update/insert/delete batches
/// by re-allocating only the overlapped components instead of rebuilding.
///
/// Structural changes (inserts/deletes) are handled with an overlay model:
/// the component-sorted files stay immutable apart from in-place value
/// write-backs, while new tuples, tombstones, and component merges live in
/// an in-memory directory of segment lists + overlays. Superseded EDB rows
/// are tombstoned with weight 0 (a no-op for every aggregate); call
/// `CompactEdb()` to squeeze them out. The three batch kinds share one set
/// of helpers (DESIGN.md §16).
class MaintenanceManager {
 public:
  /// A maintained component: the segments it owns in the component-sorted
  /// files, plus everything that changed since the build.
  struct MaintComponent {
    std::vector<std::pair<int64_t, int64_t>> cell_segments;
    std::vector<std::pair<int64_t, int64_t>> entry_segments;
    std::vector<CellRecord> overlay_cells;
    std::vector<ImpreciseRecord> overlay_entries;
    std::set<FactId> deleted;  // imprecise facts tombstoned
    Rect bbox;
    std::vector<std::pair<int64_t, int64_t>> edb_ranges;  // live rows
    bool alive = true;
  };

  /// Runs preprocessing + Transitive on `facts` (consumed), then inserts
  /// each component's bounding box into the R-tree, one Insert per
  /// component.
  static Result<std::unique_ptr<MaintenanceManager>> Build(
      StorageEnv& env, const StarSchema& schema,
      TypedFile<FactRecord>* facts, const AllocationOptions& options);

  /// Measure updates to existing facts (regions unchanged).
  Status ApplyUpdates(const std::vector<FactUpdate>& updates,
                      MaintenanceStats* stats);

  /// Inserts new facts. Imprecise inserts may merge every component their
  /// region overlaps into one (with the R-tree updated accordingly);
  /// precise inserts adjust δ and may add new cells to C.
  Status InsertFacts(const std::vector<FactRecord>& inserts,
                     MaintenanceStats* stats);

  /// Deletes existing facts (pass the stored record). A deletion never
  /// splits the directory's components eagerly — a disconnected component
  /// still allocates correctly (Theorem 9), only less efficiently — but a
  /// component whose last imprecise fact disappears is dissolved.
  Status DeleteFacts(const std::vector<FactRecord>& deletes,
                     MaintenanceStats* stats);

  /// Rewrites the EDB without tombstoned rows; returns rows removed.
  Result<int64_t> CompactEdb();

  const TypedFile<EdbRecord>& edb() const { return build_result_.edb; }
  const StarSchema& schema() const { return *schema_; }
  const AllocationResult& build_result() const { return build_result_; }
  const std::vector<MaintComponent>& directory() const { return directory_; }
  /// The disk-based spatial index over component bounding boxes. Non-const:
  /// even searches pin pages through the buffer pool.
  PagedRTree& rtree() { return *rtree_; }
  StorageEnv& env() { return *env_; }

  /// Installs (or clears, with nullptr) the row-change listener. With no
  /// listener the maintenance I/O pattern is exactly as before; with one,
  /// re-allocation additionally reads each spliced component's old rows
  /// (pages the splice was about to pin anyway).
  void set_change_listener(EdbChangeListener* listener) {
    listener_ = listener;
  }

 private:
  MaintenanceManager(StorageEnv* env, const StarSchema* schema)
      : env_(env), schema_(schema) {}

  using LeafKey = std::array<int32_t, kMaxDims>;

  /// Fills `ids` with the alive components whose bbox overlaps `fact`'s
  /// region, in R-tree search order. Records the fact's rect and each
  /// hit's bbox in stats->touched_boxes.
  Status AliveOverlaps(const FactRecord& fact, MaintenanceStats* stats,
                       std::vector<int64_t>* ids);

  /// Folds the components `from`, in order, into `into`: their segments,
  /// overlays, tombstones and EDB ranges are appended and their bboxes
  /// unioned in. Each folded component is retired and removed from the
  /// R-tree; `into`, which must not be in the R-tree, is then inserted
  /// under its grown bbox.
  Status MergeComponents(int64_t into, const std::vector<int64_t>& from);

  /// Adds `shift` to the δ of the loose or singleton cell `key`. False when
  /// there is none: the cell lies inside a component or is new.
  Result<bool> ShiftCellDelta(const LeafKey& key, double shift);

  /// Rewrites the EDB row of each precise fact in `measures` (fact id ->
  /// new measure), or tombstones it when `tombstone`, reporting the change
  /// to the listener. Rows appended since the build are found by position,
  /// the build's rows by one scan of the precise prefix.
  Status RewritePreciseRows(std::map<FactId, double> measures, bool tombstone,
                            MaintenanceStats* stats);

  /// Calls `fn` on each imprecise entry of `c` that is not deleted, stored
  /// segments first, then overlays, until `fn` returns false.
  Status ForEachLiveEntry(
      const MaintComponent& c,
      const std::function<bool(const ImpreciseRecord&)>& fn);

  /// Re-allocates one component from scratch (fresh EM over the current δ)
  /// and splices its EDB rows; applies and persists pending δ adjustments.
  /// `candidate_cells` offers new cells that join the component iff one of
  /// its facts covers them; the survivors are removed from the vector.
  Status ReallocateComponent(int64_t comp,
                             std::map<LeafKey, double>* delta_adjust,
                             std::vector<CellRecord>* candidate_cells,
                             MaintenanceStats* stats);

  /// First cell of the singleton region of the cells file not below `key`
  /// in canonical order (binary search).
  Result<int64_t> SingletonLowerBound(const LeafKey& key);

  /// Finds a cell in the singleton region; -1 if absent or absorbed.
  Result<int64_t> FindSingletonCell(const LeafKey& key);

  /// Collects singleton + loose cells covered by `region`, marks the file
  /// copies absorbed, and returns them.
  Status AbsorbCoveredCells(const FactRecord& region,
                            std::vector<CellRecord>* out);

  StorageEnv* env_;
  const StarSchema* schema_;
  AllocationOptions options_;
  PreparedDataset data_;
  AllocationResult build_result_;
  std::vector<MaintComponent> directory_;
  std::unique_ptr<PagedRTree> rtree_;
  EdbChangeListener* listener_ = nullptr;

  int64_t singleton_begin_ = 0;      // first singleton cell in the file
  std::vector<CellRecord> loose_cells_;  // cells added after the build
  /// Precise EDB rows appended after the build, by fact id.
  std::unordered_map<FactId, int64_t> extra_precise_rows_;
};

}  // namespace iolap

#endif  // IOLAP_EDB_MAINTENANCE_H_
