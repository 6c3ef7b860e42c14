#ifndef IOLAP_SERVE_AGGREGATE_CACHE_H_
#define IOLAP_SERVE_AGGREGATE_CACHE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "edb/query.h"
#include "model/schema.h"
#include "rtree/rect.h"
#include "serve/answer.h"

namespace iolap {

/// Identity of one cacheable query result: the *normalized* region (see
/// NormalizeRegion — regions selecting the same cells share one key), the
/// aggregate function, for rollups the grouping dimension + level, and the
/// answer mode (a bounded result must never serve an exact query, nor the
/// reverse — their values differ). POD so it hashes/compares by bytes;
/// `reserved` keeps the byte image free of uninitialized padding.
struct AggregateCacheKey {
  int32_t node[kMaxDims] = {};
  int8_t kind = 0;   // 0 = point aggregate, 1 = rollup
  int8_t func = 0;   // AggregateFunc
  int8_t dim = -1;   // rollup grouping dimension, -1 for point aggregates
  int8_t level = 0;  // rollup grouping level, 0 for point aggregates
  int8_t mode = 0;   // AnswerMode
  int8_t reserved[3] = {};

  bool operator==(const AggregateCacheKey& other) const {
    return std::memcmp(this, &other, sizeof(*this)) == 0;
  }
};
static_assert(std::is_trivially_copyable_v<AggregateCacheKey>);
static_assert(sizeof(AggregateCacheKey) == sizeof(int32_t) * kMaxDims + 8);

struct AggregateCacheKeyHash {
  size_t operator()(const AggregateCacheKey& key) const {
    // FNV-1a over the key bytes.
    const unsigned char* p = reinterpret_cast<const unsigned char*>(&key);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < sizeof(key); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// LRU cache of aggregate / rollup results over the Extended Database.
///
/// Capacity is counted in *slots*: a point aggregate costs 1, a rollup
/// costs one slot per group, so one cached 900-group rollup competes
/// fairly with 900 point aggregates. Entries larger than the whole
/// capacity are simply not admitted.
///
/// Invalidation is selective: a maintenance commit hands over the bounding
/// boxes of everything it touched (MaintenanceStats::touched_boxes) and
/// only entries whose region intersects one of those boxes are dropped —
/// results over untouched regions survive arbitrarily many commits.
/// Because invalidation runs eagerly inside every commit, any entry still
/// present is valid for the current generation, so entries carry none.
///
/// Thread-safe; every public method takes the internal mutex. Lock order
/// with the serve layer: QueryService's snapshot lock is always acquired
/// first, the cache mutex second, and neither is ever taken in the other
/// order.
class AggregateCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserted_entries = 0;
    int64_t evicted_entries = 0;       // LRU pressure
    int64_t invalidated_entries = 0;   // maintenance overlap
  };

  /// `capacity_slots` <= 0 constructs a cache that never admits anything.
  explicit AggregateCache(int64_t capacity_slots);

  static AggregateCacheKey MakeAggregateKey(const StarSchema& schema,
                                            const QueryRegion& region,
                                            AggregateFunc func,
                                            AnswerMode mode = AnswerMode::kExact);
  static AggregateCacheKey MakeRollUpKey(const StarSchema& schema,
                                         const QueryRegion& region, int dim,
                                         int level, AggregateFunc func);

  /// On hit, copies the cached values (size 1 for point aggregates) into
  /// `values`, the entry's promised error bound (0 for exact entries) into
  /// `bound` if non-null, and promotes the entry to most-recently-used.
  bool Lookup(const AggregateCacheKey& key,
              std::vector<AggregateResult>* values, double* bound = nullptr);

  /// Admits (or refreshes) a result for a query whose region covers the
  /// leaf box `bbox` and read the shards in `shard_mask` (every bit set,
  /// the default, is always safe). Bounded-mode entries record their
  /// promised error bound. Evicts from the LRU tail until the entry fits;
  /// an entry bigger than the whole cache is not admitted.
  void Insert(const AggregateCacheKey& key, const Rect& bbox,
              std::vector<AggregateResult> values,
              uint64_t shard_mask = ~uint64_t{0}, double bound = 0);

  /// Drops every entry whose region intersects one of `boxes`; returns the
  /// number dropped.
  int64_t Invalidate(const Rect* boxes, size_t num_boxes, int num_dims);

  /// Drops every entry that read a shard in `shard_mask`; returns the
  /// number dropped. This is the failed-batch path: a batch that failed on
  /// shards S may have partially applied anywhere in S, but cannot have
  /// touched a byte outside S — so entries over other shards survive.
  int64_t InvalidateShards(uint64_t shard_mask);

  void Clear();

  int64_t capacity_slots() const { return capacity_slots_; }
  int64_t used_slots() const;
  int64_t entries() const;
  Stats stats() const;

 private:
  struct Entry {
    AggregateCacheKey key;
    Rect bbox;
    std::vector<AggregateResult> values;
    uint64_t shard_mask = ~uint64_t{0};
    double bound = 0;  // promised error bound (bounded-mode entries)
  };
  using Lru = std::list<Entry>;

  void EvictForSpace(int64_t needed_slots);

  const int64_t capacity_slots_;
  mutable std::mutex mu_;
  Lru lru_;  // front = most recently used
  std::unordered_map<AggregateCacheKey, Lru::iterator, AggregateCacheKeyHash>
      index_;
  int64_t used_slots_ = 0;
  Stats stats_;
  // Cached global-metrics handles (null when observability is disabled).
  class Counter* hits_counter_;
  class Counter* misses_counter_;
  class Counter* evicted_counter_;
  class Counter* invalidated_counter_;
  class Gauge* slots_gauge_;
};

}  // namespace iolap

#endif  // IOLAP_SERVE_AGGREGATE_CACHE_H_
