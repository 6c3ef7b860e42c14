#ifndef IOLAP_EDB_QUERY_H_
#define IOLAP_EDB_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/result.h"
#include "model/records.h"
#include "model/schema.h"
#include "rtree/rect.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

enum class AggregateFunc { kSum, kCount, kAverage, kMin, kMax };

/// Semantics for aggregating over imprecise facts, following the companion
/// paper (VLDB'05). The allocation-based semantics is the one this paper's
/// Extended Database enables; None/Contains/Overlaps are the classical
/// baselines it improves on.
enum class ImpreciseSemantics {
  /// Weight each possible completion by its allocation p_{c,r} (uses D*).
  kAllocationWeighted,
  /// Ignore imprecise facts entirely (uses D).
  kNone,
  /// Count an imprecise fact fully iff its region is contained in the
  /// query region (uses D).
  kContains,
  /// Count an imprecise fact fully iff its region overlaps the query
  /// region (uses D).
  kOverlaps,
};

/// A rollup query region: one hierarchy node per dimension (the root / ALL
/// selects everything in that dimension).
struct QueryRegion {
  NodeId node[kMaxDims] = {};  // node 0 is always the root

  static QueryRegion All() { return QueryRegion{}; }
  QueryRegion& With(int dim, NodeId n) {
    node[dim] = n;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Region geometry — the one home for query-region normalization,
// containment and intersection. QueryEngine's scan filter, the serve
// layer's AggregateCache invalidation, and the R-tree box checks all go
// through these helpers so the three can never disagree about what a
// region covers.

/// Does the cell with the given leaf coordinates lie inside `region`?
inline bool RegionContainsLeaf(const StarSchema& schema,
                               const QueryRegion& region,
                               const int32_t* leaf) {
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (!schema.dim(d).Covers(region.node[d], leaf[d])) return false;
  }
  return true;
}

/// Does `region` constrain dimension `d` at all, i.e. does its node exclude
/// at least one leaf? Unconstrained dimensions need no containment check —
/// and no leaf column at all on the columnar scan path.
inline bool RegionConstrainsDim(const StarSchema& schema,
                                const QueryRegion& region, int d) {
  const Hierarchy& h = schema.dim(d);
  return h.leaf_begin(region.node[d]) != 0 ||
         h.leaf_end(region.node[d]) != h.num_leaves();
}

/// The axis-aligned box of leaf ids `region` covers (bounds inclusive, the
/// same convention as the maintenance R-tree's component bounding boxes).
inline Rect RegionToRect(const StarSchema& schema, const QueryRegion& region) {
  Rect r;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    r.lo[d] = h.leaf_begin(region.node[d]);
    r.hi[d] = h.leaf_end(region.node[d]) - 1;
  }
  return r;
}

/// Canonical form of a region: any node covering its dimension's full leaf
/// range is rewritten to the root, so regions selecting the same cells
/// share one representation (the serve cache keys on this).
inline QueryRegion NormalizeRegion(const StarSchema& schema,
                                   const QueryRegion& region) {
  QueryRegion out = region;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    if (h.leaf_begin(out.node[d]) == 0 &&
        h.leaf_end(out.node[d]) == h.num_leaves()) {
      out.node[d] = h.root();
    }
  }
  for (int d = schema.num_dims(); d < kMaxDims; ++d) out.node[d] = 0;
  return out;
}

/// The inclusive leaf box a fact's (possibly imprecise) region covers —
/// the fact-record analogue of RegionToRect. The sharded serve layer uses
/// this to compute which shards a maintenance batch can touch before
/// applying it.
inline Rect FactRegionToRect(const StarSchema& schema,
                             const FactRecord& fact) {
  Rect r;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    r.lo[d] = h.leaf_begin(fact.node[d]);
    r.hi[d] = h.leaf_end(fact.node[d]) - 1;
  }
  return r;
}

/// The one argument check every rollup entry point runs before anything
/// else: `dim` must name a schema dimension and `level` one of its levels
/// below the root.
inline Status CheckRollUpArgs(const StarSchema& schema, int dim, int level) {
  if (dim < 0 || dim >= schema.num_dims()) {
    return Status::InvalidArgument("rollup dimension out of range");
  }
  if (level < 1 || level > schema.dim(dim).num_levels()) {
    return Status::InvalidArgument("rollup level out of range");
  }
  return Status::Ok();
}

/// Groups of a rollup of `dim` at `level`: one per node of that level.
/// `dim < 0` is a point aggregate, which has one group.
inline int64_t RollUpGroups(const StarSchema& schema, int dim, int level) {
  return dim < 0 ? 1 : schema.dim(dim).num_nodes_at_level(level);
}

/// The region of group `g` of that rollup: `region` narrowed in `dim` to
/// the group's node. Hierarchy nodes nest or are disjoint, so the narrowed
/// region keeps whichever of the group node and `region.node[dim]` lies
/// inside the other; false when they are disjoint (the group is empty).
/// A point aggregate's one group is `region` itself.
inline bool RollUpGroupRegion(const StarSchema& schema,
                              const QueryRegion& region, int dim, int level,
                              int64_t g, QueryRegion* group) {
  *group = region;
  if (dim < 0) return true;
  const Hierarchy& h = schema.dim(dim);
  const NodeId node = h.nodes_at_level(level)[g];
  const NodeId within = region.node[dim];
  if (h.leaf_end(node) <= h.leaf_begin(within) ||
      h.leaf_begin(node) >= h.leaf_end(within)) {
    return false;
  }
  if (h.leaf_begin(node) >= h.leaf_begin(within) &&
      h.leaf_end(node) <= h.leaf_end(within)) {
    group->node[dim] = node;
  }
  return true;
}

/// Does `region` intersect the leaf box `rect`? Used by the serve cache to
/// decide whether a maintenance batch's touched component boxes overlap a
/// cached result's region.
inline bool RegionIntersectsRect(const StarSchema& schema,
                                 const QueryRegion& region, const Rect& rect) {
  return RectsIntersect(RegionToRect(schema, region), rect,
                        schema.num_dims());
}

// ---------------------------------------------------------------------------
// Aggregate accumulation. One scan produces a raw (sum, count, min, max)
// accumulator; partitioned scans merge their partials in partition order;
// FinalizeAggregate then derives `value` and normalizes empty groups so
// callers never see a division by zero or an un-sampled infinity.

struct AggregateResult {
  double sum = 0;
  double count = 0;
  /// Extremes of the *measure* over matching rows (unweighted; a fact's
  /// measure is a property of the fact, not of its allocation split).
  /// +/-infinity until the first row; FinalizeAggregate turns an empty
  /// group's extremes into 0.
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double value = 0;  // the requested aggregate
};

/// Folds one matching row (EDB row with its allocation weight, or a
/// baseline-semantics fact with weight 1) into the accumulator.
inline void AccumulateAggregate(AggregateResult* acc, double weight,
                                double measure) {
  acc->sum += weight * measure;
  acc->count += weight;
  acc->min = std::min(acc->min, measure);
  acc->max = std::max(acc->max, measure);
}

/// Merges a partition's partial accumulator into `acc`. Merge partials in
/// ascending partition order so a partitioned scan is deterministic for a
/// fixed partition count.
inline void MergeAggregate(AggregateResult* acc, const AggregateResult& part) {
  acc->sum += part.sum;
  acc->count += part.count;
  acc->min = std::min(acc->min, part.min);
  acc->max = std::max(acc->max, part.max);
}

/// Derives `value` from the accumulator. An empty group (count == 0) is
/// well-defined: sum = count = value = 0 and the extremes are reset to 0
/// (never a 0/0 average, never an escaped infinity).
inline void FinalizeAggregate(AggregateResult* acc, AggregateFunc func) {
  if (acc->count <= 0) {
    acc->min = 0;
    acc->max = 0;
  }
  switch (func) {
    case AggregateFunc::kSum:
      acc->value = acc->sum;
      break;
    case AggregateFunc::kCount:
      acc->value = acc->count;
      break;
    case AggregateFunc::kAverage:
      acc->value = acc->count > 0 ? acc->sum / acc->count : 0;
      break;
    case AggregateFunc::kMin:
      acc->value = acc->min;
      break;
    case AggregateFunc::kMax:
      acc->value = acc->max;
      break;
  }
}

/// Aggregation over the Extended Database (and optionally the original
/// fact table, for the baseline semantics).
class QueryEngine {
 public:
  QueryEngine(StorageEnv* env, const StarSchema* schema,
              const TypedFile<EdbRecord>* edb,
              const TypedFile<FactRecord>* facts = nullptr)
      : env_(env), schema_(schema), edb_(edb), facts_(facts) {}

  /// SUM / COUNT / AVERAGE / MIN / MAX of the measure over the query region
  /// under the given semantics. The baseline semantics require a fact table.
  Result<AggregateResult> Aggregate(const QueryRegion& region,
                                    AggregateFunc func,
                                    ImpreciseSemantics semantics =
                                        ImpreciseSemantics::kAllocationWeighted)
      const;

  /// GROUP BY one dimension at a hierarchy level (a rollup): one aggregate
  /// per node of `dim` at `level`, restricted to `region`, computed in a
  /// single EDB scan. Allocation-weighted semantics only (that is the
  /// point of the Extended Database). Results are indexed by node ordinal.
  Result<std::vector<AggregateResult>> RollUp(const QueryRegion& region,
                                              int dim, int level,
                                              AggregateFunc func) const;

  /// Provenance: every EDB row whose cell lies in `region` — i.e., the
  /// facts (and fractions of facts) behind an aggregate over that region.
  Result<std::vector<EdbRecord>> FactsIn(const QueryRegion& region) const;

  /// Provenance: where one fact's mass went — its possible completions
  /// with their allocation weights (one row, weight 1, for precise facts;
  /// empty for unallocatable facts).
  Result<std::vector<EdbRecord>> CompletionsOf(FactId fact_id) const;

 private:
  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;
  const TypedFile<FactRecord>* facts_;
};

}  // namespace iolap

#endif  // IOLAP_EDB_QUERY_H_
