#ifndef IOLAP_AGGIDX_AGG_INDEX_H_
#define IOLAP_AGGIDX_AGG_INDEX_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "model/records.h"
#include "model/schema.h"
#include "rtree/rect.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

// ---------------------------------------------------------------------------
// On-disk node layout (see docs/FORMAT.md). One node per 4 KiB page: a
// 16-byte header followed by up to kAggIndexEntriesPerPage packed entries.
// Nodes and entries are sorted by the canonical (dimension-0-major) order of
// their first cell, so every entry covers a contiguous run of the sorted
// occupied-cell sequence.

struct AggIndexNodeHeader {
  int32_t num_entries = 0;
  int32_t level = 0;  // 0 = leaf node (entries are single cells)
  int64_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<AggIndexNodeHeader>);
static_assert(sizeof(AggIndexNodeHeader) == 16);

/// One index entry: a single occupied cell (leaf, `child == -1`, bbox is a
/// point) or a whole child subtree (internal, bbox is the union of the
/// child's entries). The partials answer all five aggregate functions over
/// the entry's rows: SUM = sum, COUNT = count, AVERAGE = sum / count,
/// MIN/MAX = min/max of the unweighted measure. `min = -inf, max = +inf`
/// marks extremes unknown since a removal under the entry.
struct AggIndexEntry {
  int32_t key[kMaxDims] = {};  // canonical sort key: first cell of the run
  Rect bbox;                   // inclusive leaf box covered
  double sum = 0;              // Σ weight · measure
  double count = 0;            // Σ weight
  double min = 0;              // min measure over live rows
  double max = 0;              // max measure over live rows
  int64_t child = -1;          // child page id; -1 for leaf entries
};
static_assert(std::is_trivially_copyable_v<AggIndexEntry>);
static_assert(sizeof(AggIndexEntry) == 112);

inline constexpr int64_t kAggIndexEntriesPerPage =
    static_cast<int64_t>((kPageSize - sizeof(AggIndexNodeHeader)) /
                         sizeof(AggIndexEntry));
static_assert(kAggIndexEntriesPerPage == 36);

/// Paged, disk-resident hierarchical aggregate index over the Extended
/// Database: per-measure partials (sum, count, min, max) for every occupied
/// leaf cell, packed bottom-up into a static tree in canonical cell order.
/// Because every hierarchy node covers a contiguous leaf range, any query
/// region is an axis-aligned leaf box, answered by the tree: whole subtrees
/// merge where the entry box is contained, recursion handles the fringe —
/// a few node pages instead of a full EDB scan. (The serve layer answers
/// regions that constrain at most one dimension from the per-node
/// SynopsisStore first; see QueryService.) All node access goes through the
/// BufferPool, so index I/O is counted (and reported under the `aggidx.*`
/// metric family), separate from the allocation path's demand I/O.
///
/// Incremental maintenance follows the SynopsisStore's staleness rule.
/// Installed as (one of) the MaintenanceManager's EdbChangeListeners, it
/// folds row-level changes into per-cell deltas and `Commit` patches
/// sum/count (and monotone min/max growth) in place along each cell's
/// root-to-leaf path. Removals are non-subtractive for min/max, so a cell
/// that lost a row marks every entry on its path with the widened envelope
/// `min = -inf, max = +inf`; a MIN/MAX probe that would merge a marked
/// entry returns kUnavailable and the caller falls through to the next
/// tier. Only a rebuild clears the marks. Cells first seen after the build
/// live in an in-memory overlay (marked the same way) until that rebuild.
///
/// Queries never build: an unbuilt or stale index refuses every probe with
/// kUnavailable. `Build` / `RebuildIfStale` scan the whole EDB, so the
/// serve layer calls them only at init or after a commit, under its
/// mutation lock.
///
/// Thread-safety: one internal mutex serializes all operations. The serve
/// layer calls queries under its shared snapshot lock and Commit/Invalidate
/// under the exclusive lock; lock order is always snapshot lock first, then
/// this index's mutex.
class AggIndex : public EdbChangeListener {
 public:
  struct Stats {
    int64_t probes = 0;         // aggregate / rollup-group lookups served
    int64_t nodes_read = 0;     // node pages visited by lookups
    int64_t builds = 0;         // Build() calls and first builds
    int64_t refreshes = 0;      // rebuilds of a previously built index
    int64_t cells_patched = 0;  // per-cell in-place partial patches
    int64_t cells = 0;          // cells in the packed tree
    int64_t pages = 0;          // node pages
    int64_t height = 0;         // tree levels
    int64_t overlay_cells = 0;  // cells currently in the overlay
  };

  AggIndex(StorageEnv* env, const StarSchema* schema,
           const TypedFile<EdbRecord>* edb);

  AggIndex(const AggIndex&) = delete;
  AggIndex& operator=(const AggIndex&) = delete;

  /// Builds (or rebuilds) the tree from one EDB pass; clears the overlay
  /// and every min/max mark. Scans the whole EDB: call only where no
  /// writer can be concurrent.
  Status Build();

  /// Allocation-weighted aggregate over `region`, answered from node
  /// partials. kUnavailable when the index is unbuilt or stale, or when
  /// `func` is MIN/MAX and the region covers a cell that lost a row since
  /// the last build (see class comment).
  Result<AggregateResult> Aggregate(const QueryRegion& region,
                                    AggregateFunc func);

  /// Rollup: one aggregate per node of `dim` at `level` restricted to
  /// `region`, indexed by node ordinal — answered as one index probe per
  /// group (each group region is still a box). Refused as a whole, as
  /// Aggregate refuses, if any group is.
  Result<std::vector<AggregateResult>> RollUp(const QueryRegion& region,
                                              int dim, int level,
                                              AggregateFunc func);

  // EdbChangeListener: buffers row-level changes of the in-flight
  // maintenance batch as per-cell deltas (applied only by Commit).
  void OnAdd(const EdbRecord& rec) override;
  void OnRemove(const EdbRecord& rec) override;

  /// Folds the buffered deltas into the index after a successful batch;
  /// a cell that lost a row has its path's min/max marked. Leaves the
  /// index stale when the overlay outgrows its cap.
  Status Commit();

  /// Drops buffered deltas and marks the whole index stale (failed or
  /// partially applied batch); queries refuse until RebuildIfStale.
  void Invalidate();

  /// Rebuilds now if the index is unbuilt or stale; a no-op otherwise.
  /// Call only where no writer can be concurrent (init, or post-commit
  /// under the mutation lock) — the pass scans the whole EDB. Min/max
  /// marks alone do not make the index stale (they only send MIN/MAX
  /// probes over marked cells to the next tier).
  Status RebuildIfStale();

  Stats stats() const;

 private:
  struct Partials {
    double sum = 0;
    double count = 0;
    double min = 0;
    double max = 0;
  };
  struct CellDelta {
    double dsum = 0;
    double dcount = 0;
    double add_min = 0;  // valid iff has_add
    double add_max = 0;
    bool has_add = false;
    bool removed = false;

    /// Folds this delta into a cell's (or entry's) extremes: additions
    /// widen them, a removal marks them (-inf, +inf).
    void FoldExtremes(double* min, double* max) const;
  };
  using LeafKey = std::array<int32_t, kMaxDims>;

  /// Refuses when unbuilt or stale.
  Status EnsureBuiltLocked() const;
  Status BuildLocked(bool is_refresh);
  Status WritePageLocked(int64_t page, const AggIndexNodeHeader& header,
                         const AggIndexEntry* entries);
  /// Fold the partials of every cell inside `query` into `acc`; with
  /// `minmax` set, refuse as soon as a marked entry would merge.
  Status QueryNodeLocked(int64_t page, const Rect& query, bool minmax,
                         AggregateResult* acc);
  Status QueryRectLocked(const Rect& query, bool minmax,
                         AggregateResult* acc);
  Status PatchCellLocked(const LeafKey& key, const CellDelta& delta,
                         bool* found);
  void InvalidateLocked();

  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;

  mutable std::mutex mu_;
  FileId file_ = kInvalidFileId;
  int64_t root_ = -1;      // root page id; -1 when the tree is empty
  int64_t num_pages_ = 0;  // node pages written by the last build
  bool built_ = false;
  bool stale_ = false;  // full rebuild required before any answer
  std::map<LeafKey, Partials> overlay_;  // cells added after the build
  std::map<LeafKey, CellDelta> pending_;  // in-flight batch deltas
  Stats stats_;

  // Cached global-metrics handles (null when observability is disabled).
  class Counter* probes_counter_;
  class Counter* nodes_read_counter_;
  class Counter* builds_counter_;
  class Counter* refreshes_counter_;
  class Counter* patched_counter_;
  class Gauge* cells_gauge_;
  class Gauge* pages_gauge_;
};

}  // namespace iolap

#endif  // IOLAP_AGGIDX_AGG_INDEX_H_
