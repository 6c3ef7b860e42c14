#include "serve/aggregate_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace iolap {

AggregateCache::AggregateCache(int64_t capacity_slots)
    : capacity_slots_(capacity_slots),
      hits_counter_(GlobalCounter("serve.cache.hits")),
      misses_counter_(GlobalCounter("serve.cache.misses")),
      evicted_counter_(GlobalCounter("serve.cache.evicted_entries")),
      invalidated_counter_(GlobalCounter("serve.cache.invalidated_entries")),
      slots_gauge_(GlobalGauge("serve.cache.used_slots")) {}

AggregateCacheKey AggregateCache::MakeKey(const StarSchema& schema,
                                          const QueryRegion& region, int dim,
                                          int level, AggregateFunc func,
                                          AnswerMode mode) {
  AggregateCacheKey key;
  const QueryRegion normalized = NormalizeRegion(schema, region);
  for (int d = 0; d < kMaxDims; ++d) key.node[d] = normalized.node[d];
  if (dim >= 0) {
    key.kind = 1;
    key.dim = static_cast<int8_t>(dim);
    key.level = static_cast<int8_t>(level);
  }
  key.func = static_cast<int8_t>(func);
  key.mode = static_cast<int8_t>(mode);
  return key;
}

bool AggregateCache::Lookup(const AggregateCacheKey& key,
                            std::vector<AggregateResult>* values,
                            double* bound) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (misses_counter_ != nullptr) misses_counter_->Add(1);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  *values = it->second->values;
  if (bound != nullptr) *bound = it->second->bound;
  ++stats_.hits;
  if (hits_counter_ != nullptr) hits_counter_->Add(1);
  return true;
}

void AggregateCache::Insert(const AggregateCacheKey& key, const Rect& bbox,
                            std::vector<AggregateResult> values,
                            uint64_t shard_mask, double bound) {
  const int64_t slots = static_cast<int64_t>(values.size());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (a concurrent miss on the same key recomputed it).
    used_slots_ -= static_cast<int64_t>(it->second->values.size());
    it->second->values = std::move(values);
    it->second->bbox = bbox;
    it->second->shard_mask = shard_mask;
    it->second->bound = bound;
    used_slots_ += slots;
    lru_.splice(lru_.begin(), lru_, it->second);
    if (slots_gauge_ != nullptr) slots_gauge_->Set(used_slots_);
    return;
  }
  if (slots > capacity_slots_) return;  // bigger than the whole cache
  EvictForSpace(slots);
  lru_.push_front(
      Entry{key, bbox, std::move(values), shard_mask, bound});
  index_.emplace(key, lru_.begin());
  used_slots_ += slots;
  ++stats_.inserted_entries;
  if (slots_gauge_ != nullptr) slots_gauge_->Set(used_slots_);
}

void AggregateCache::EvictForSpace(int64_t needed_slots) {
  while (!lru_.empty() && used_slots_ + needed_slots > capacity_slots_) {
    const Entry& victim = lru_.back();
    used_slots_ -= static_cast<int64_t>(victim.values.size());
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evicted_entries;
    if (evicted_counter_ != nullptr) evicted_counter_->Add(1);
  }
}

int64_t AggregateCache::Invalidate(const Rect* boxes, size_t num_boxes,
                                   int num_dims) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    bool touched = false;
    for (size_t b = 0; b < num_boxes && !touched; ++b) {
      touched = RectsIntersect(it->bbox, boxes[b], num_dims);
    }
    if (touched) {
      used_slots_ -= static_cast<int64_t>(it->values.size());
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated_entries += dropped;
  if (invalidated_counter_ != nullptr) invalidated_counter_->Add(dropped);
  if (slots_gauge_ != nullptr) slots_gauge_->Set(used_slots_);
  return dropped;
}

int64_t AggregateCache::InvalidateShards(uint64_t shard_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if ((it->shard_mask & shard_mask) != 0) {
      used_slots_ -= static_cast<int64_t>(it->values.size());
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated_entries += dropped;
  if (invalidated_counter_ != nullptr) invalidated_counter_->Add(dropped);
  if (slots_gauge_ != nullptr) slots_gauge_->Set(used_slots_);
  return dropped;
}

void AggregateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  used_slots_ = 0;
  if (slots_gauge_ != nullptr) slots_gauge_->Set(0);
}

int64_t AggregateCache::used_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_slots_;
}

int64_t AggregateCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

AggregateCache::Stats AggregateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace iolap
