#ifndef IOLAP_OBS_METRICS_H_
#define IOLAP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace iolap {

/// Monotonic counter. `Add` is the lock-free fast path: a single relaxed
/// atomic add, safe from any thread. Handles returned by MetricsRegistry
/// stay valid for the registry's lifetime.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, pool occupancy).
/// `Set`/`Add` are single relaxed atomic operations.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative samples. `Record` touches only
/// relaxed atomics (one add per bucket/count/sum plus CAS loops for
/// min/max), so concurrent recording never blocks. Bucket b counts samples
/// in [2^(b-1), 2^b); bucket 0 counts zeros.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// INT64_MAX until the first sample.
  int64_t min() const { return min_.load(std::memory_order_relaxed); }
  /// INT64_MIN until the first sample.
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// The `q`-quantile (0 < q <= 1) as the inclusive upper edge of the
  /// bucket holding the sample of rank ceil(q * n), clamped to max():
  /// bucket 0 gives 0 and bucket b gives 2^b - 1. 0 while empty.
  int64_t Percentile(double q) const;

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

/// Named metric registry unifying the run's observable quantities — the
/// demand I/O counters the paper's theorems bound, pool behaviour, EM
/// iteration counts, component census — behind one flat JSON export.
///
/// Registration (`counter()`/`gauge()`/`histogram()`) takes a mutex and is
/// expected once per site (cache the returned handle); updates through the
/// handles are lock-free. All handles remain valid until the registry is
/// destroyed. Value callbacks are sampled at export time and suit values a
/// component already maintains elsewhere (e.g. DiskManager's atomics).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; one name maps to one metric of one kind forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Registers (or replaces) a value sampled lazily at export time.
  void SetValueCallback(const std::string& name,
                        std::function<int64_t()> fn);

  /// Visits every gauge (name, current value) — the trace collector
  /// samples these at span boundaries.
  void VisitGauges(
      const std::function<void(const std::string&, int64_t)>& fn) const;

  /// One flat JSON object: counters and gauges by name; histograms as
  /// name.count/.sum/.min/.max/.avg/.p50/.p90/.p99 (percentiles per
  /// Histogram::Percentile); callbacks sampled now.
  std::string ToJson() const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<int64_t()>> callbacks_;
};

/// Process-global observability context. Null (the default) means
/// disabled: every instrumented site guards on the pointer, so a disabled
/// build path costs one relaxed atomic load — no allocation, no branch
/// into instrumentation, no behavioural difference.
MetricsRegistry* GlobalMetrics();
void SetGlobalMetrics(MetricsRegistry* registry);

/// Convenience lookups that return nullptr when no registry is installed;
/// instrumented constructors cache the result once.
Counter* GlobalCounter(const std::string& name);
Gauge* GlobalGauge(const std::string& name);
Histogram* GlobalHistogram(const std::string& name);

}  // namespace iolap

#endif  // IOLAP_OBS_METRICS_H_
