#ifndef IOLAP_SERVE_SHARD_MAP_H_
#define IOLAP_SERVE_SHARD_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "model/schema.h"
#include "rtree/rect.h"

namespace iolap {

/// Shards are identified by dense ids [0, num_shards); the per-shard state a
/// QueryService keeps is addressed by these ids, and touched-shard sets are
/// passed around as bit masks, which caps the shard count at 64.
inline constexpr int kMaxShards = 64;

/// Static partitioning of the leaf space into shards: contiguous,
/// non-overlapping dimension-0 leaf ranges covering [0, num_leaves).
///
/// Boundaries are chosen so that no allocation component's bounding box
/// straddles a shard boundary — overlapping component extents are first
/// merged into indivisible "atoms", then atoms are packed into shards
/// balancing the per-leaf row histogram. Components are the unit of
/// maintenance (a batch re-allocates whole components, never parts of one),
/// so component-aligned shards make every maintenance mutation, and the
/// `touched_boxes` invalidation it emits, shard-local *for the component
/// structure the map was built from*. Components merged by later inserts
/// may come to span shards; the serve layer handles that conservatively by
/// locking every shard a component's box intersects.
///
/// The map itself is immutable after Build — all lookups are const and
/// safe from any thread.
class ShardMap {
 public:
  /// Trivial single-shard map covering the whole leaf space.
  ShardMap() : begins_{0, 0} {}

  /// Builds a map with at most `requested_shards` shards (clamped to
  /// [1, kMaxShards] and to what the component atoms allow).
  /// `component_boxes` are the bounding boxes (inclusive leaf coordinates)
  /// that must not straddle a boundary; `leaf_rows[l]` is the number of EDB
  /// rows whose dimension-0 leaf is `l` (pass an empty vector for a uniform
  /// assumption). Deterministic: depends only on its arguments.
  static ShardMap Build(const StarSchema& schema, int requested_shards,
                        const std::vector<Rect>& component_boxes,
                        const std::vector<int64_t>& leaf_rows);

  int num_shards() const { return static_cast<int>(begins_.size()) - 1; }

  /// Shard owning dimension-0 leaf `leaf0` (clamped into the leaf range, so
  /// any int32 is safe to pass).
  int ShardOfLeaf(int32_t leaf0) const;

  /// Inclusive shard id range [first, last] intersecting `rect`'s
  /// dimension-0 interval.
  std::pair<int, int> ShardRangeOfRect(const Rect& rect) const {
    return {ShardOfLeaf(rect.lo[0]), ShardOfLeaf(rect.hi[0])};
  }

  /// Bit mask of the shards intersecting `rect`.
  uint64_t MaskOfRect(const Rect& rect) const {
    auto [lo, hi] = ShardRangeOfRect(rect);
    return MaskOfRange(lo, hi);
  }

  /// Bit mask of the inclusive shard range [first, last].
  static uint64_t MaskOfRange(int first, int last) {
    uint64_t mask = 0;
    for (int s = first; s <= last; ++s) mask |= uint64_t{1} << s;
    return mask;
  }

  /// First / one-past-last dimension-0 leaf of shard `s`.
  int32_t shard_begin(int s) const { return begins_[s]; }
  int32_t shard_end(int s) const { return begins_[s + 1]; }

 private:
  /// begins_[s] is shard s's first leaf; begins_.back() == num_leaves.
  std::vector<int32_t> begins_;
};

}  // namespace iolap

#endif  // IOLAP_SERVE_SHARD_MAP_H_
