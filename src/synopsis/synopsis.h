#ifndef IOLAP_SYNOPSIS_SYNOPSIS_H_
#define IOLAP_SYNOPSIS_SYNOPSIS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"
#include "synopsis/bounded.h"

namespace iolap {

/// Moment synopsis of one (shard, dimension, hierarchy-node) slice of the
/// Extended Database: everything the bounded-answer evaluator needs about
/// the live rows whose leaf on that dimension falls under the node.
struct SynopsisMoments {
  double mass = 0;  // Σ weight (allocation mass; COUNT of the slice)
  double swv = 0;   // Σ weight · measure (SUM of the slice)
  double swv2 = 0;  // Σ weight · measure² (second moment, feeds Hoeffding)
  double vmin = std::numeric_limits<double>::infinity();   // measure envelope
  double vmax = -std::numeric_limits<double>::infinity();
  int64_t rows = 0;  // live EDB rows in the slice
  /// A removal touched this slice: vmin/vmax are still a conservative
  /// envelope of the live rows (removals only tighten the true extremes)
  /// but no longer necessarily attained — exact MIN/MAX must fall back.
  bool minmax_patched = false;

  bool empty() const { return rows == 0; }
};

/// In-memory per-shard × per-hierarchy-node moment synopses over the EDB —
/// the serve layer's one per-node partial store. One EDB pass builds a
/// SynopsisMoments entry for every (shard, dim, node); the hierarchy node
/// counts are small (a few thousand per schema), so the whole store is a
/// few hundred KiB per shard. Shards follow the serve layer's dimension-0
/// ShardMap so a query's shard set is identical across tiers.
///
/// It answers two kinds of query from the same slices. A region that, in
/// every shard it reaches, constrains at most one dimension reads one slice
/// per shard and is exact (bound 0; MIN/MAX only until a removal touches
/// the slice): the serve layer's exact walk takes these before the
/// aggregate index's cell tree. Any other region gets a bounded estimate
/// for the approximate tier.
///
/// Incremental maintenance: installed as (one of) the MaintenanceManager's
/// EdbChangeListeners, it folds row changes into per-slice deltas along
/// each row's root-to-leaf node path on every dimension, buffered until
/// `Commit` (mutation success) or dropped by `Invalidate` (failed batch →
/// stale, rebuilt by `RebuildIfStale`).
/// Removals patch mass/moments exactly but only mark the extremes; a slice
/// whose live row count returns to zero resets to the exactly-empty state.
///
/// Thread-safety: one internal mutex serializes all operations, same
/// contract and lock order as AggIndex (snapshot lock first, then this).
class SynopsisStore : public EdbChangeListener {
 public:
  struct Stats {
    int64_t builds = 0;      // full builds from an EDB pass
    int64_t commits = 0;     // delta batches folded in
    int64_t patched = 0;     // slice entries patched by commits
    int64_t estimates = 0;   // EstimateAggregate / ExactRollUp calls served
    int64_t exact_hits = 0;  // of those, answered exactly (bound 0)
    int64_t entries = 0;     // slice entries resident
  };

  SynopsisStore(StorageEnv* env, const StarSchema* schema,
                const TypedFile<EdbRecord>* edb);

  SynopsisStore(const SynopsisStore&) = delete;
  SynopsisStore& operator=(const SynopsisStore&) = delete;

  /// Installs the dimension-0 shard partition: `begins` has num_shards + 1
  /// ascending leaf ids, shard s covering [begins[s], begins[s+1]). Must
  /// cover the full dimension-0 leaf range. Resets the store to unbuilt.
  void SetShardBounds(std::vector<int32_t> begins);

  /// (Re)builds every slice from one EDB pass (tombstones skipped).
  Status Build();

  /// Rebuilds now if unbuilt or stale; a no-op otherwise. Call only where
  /// no writer can be concurrent (init, or post-commit under the mutation
  /// lock) — the pass scans the whole EDB.
  Status RebuildIfStale();

  // EdbChangeListener: buffers the in-flight batch's row changes as
  // per-slice deltas; no-ops until the store is first built.
  void OnAdd(const EdbRecord& rec) override;
  void OnRemove(const EdbRecord& rec) override;

  /// Folds the buffered deltas in after a successful batch.
  Status Commit();

  /// Drops buffered deltas and marks the store stale (failed batch).
  void Invalidate();

  /// Bounded aggregate over `region`: composes covering-node slices into
  /// an answer whose distance from the exact answer is at most
  /// `out.bound` with probability >= 1 - delta (with certainty when the
  /// bound came from the Fréchet interval — in particular whenever
  /// `out.exact`). Returns kUnavailable when unbuilt or stale; the caller
  /// decides eligibility by comparing `out.bound` to its epsilon.
  Result<BoundedAggregate> EstimateAggregate(const QueryRegion& region,
                                             AggregateFunc func, double delta);

  /// Rollup (one aggregate per node of `dim` at `level`, restricted to
  /// `region`, indexed by node ordinal) answered only if every group's
  /// answer is exact (bound 0). Returns kUnavailable when unbuilt, stale,
  /// or some group would need a bounded estimate; the caller then falls
  /// back to an exact tier.
  Result<std::vector<AggregateResult>> ExactRollUp(const QueryRegion& region,
                                                   int dim, int level,
                                                   AggregateFunc func);

  /// The slice entry for (shard, dim, node) — test/bench introspection.
  SynopsisMoments MomentsFor(int shard, int dim, NodeId node) const;
  /// All live rows of one shard: the root slice (any dimension's root).
  SynopsisMoments ShardTotal(int shard) const;

  int num_shards() const;
  bool ready() const;  // built and not stale
  Stats stats() const;

 private:
  struct Delta {
    double dmass = 0;
    double dswv = 0;
    double dswv2 = 0;
    int64_t drows = 0;
    double add_min = std::numeric_limits<double>::infinity();
    double add_max = -std::numeric_limits<double>::infinity();
    bool removed = false;
  };
  // (shard, dim, node) — per-slice pending delta key.
  using SliceKey = std::tuple<int, int, NodeId>;

  int ShardOfLeafLocked(int32_t leaf0) const;
  /// Refuses when unbuilt or stale; otherwise counts one estimate.
  Status BeginEstimateLocked();
  void CountExactLocked();
  /// The bounded answer for one region: per-shard terms from the slices
  /// of its constrained dimensions, composed by ComposeBounded.
  BoundedAggregate EstimateLocked(const QueryRegion& region,
                                  AggregateFunc func, double delta) const;
  Status BuildLocked();
  void FoldRowLocked(const EdbRecord& rec, double sign);
  SynopsisMoments& SliceLocked(int shard, int dim, NodeId node);
  const SynopsisMoments& SliceLocked(int shard, int dim, NodeId node) const;

  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;

  mutable std::mutex mu_;
  std::vector<int32_t> begins_;  // shard partition of dim-0 leaves
  /// slices_[shard][dim][node]; sized at SetShardBounds, filled by Build.
  std::vector<std::vector<std::vector<SynopsisMoments>>> slices_;
  std::map<SliceKey, Delta> pending_;  // in-flight batch deltas
  bool built_ = false;
  bool stale_ = false;
  Stats stats_;

  // Cached global-metrics handles (null when observability is disabled).
  class Counter* builds_counter_;
  class Counter* commits_counter_;
  class Counter* patched_counter_;
  class Counter* estimates_counter_;
  class Counter* exact_counter_;
  class Gauge* entries_gauge_;
};

}  // namespace iolap

#endif  // IOLAP_SYNOPSIS_SYNOPSIS_H_
