#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/json_util.h"

namespace iolap {

namespace {

/// Installed registry. Relaxed is sufficient: installation happens before
/// the instrumented run starts (the installer synchronizes via whatever
/// launches the work), and a site that misses a just-installed registry
/// merely skips one update.
std::atomic<MetricsRegistry*> g_metrics{nullptr};

int BucketOf(int64_t v) {
  if (v <= 0) return 0;
  return 64 - __builtin_clzll(static_cast<uint64_t>(v));
}

}  // namespace

void Histogram::Record(int64_t v) {
  if (v < 0) v = 0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[std::min(BucketOf(v), kBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
  int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::Percentile(double q) const {
  // Rank against the buckets' own total, so a concurrent Record cannot
  // push the rank past the last bucket.
  int64_t n = 0;
  for (int b = 0; b < kBuckets; ++b) n += bucket(b);
  if (n == 0) return 0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n))));
  int64_t seen = 0;
  int b = 0;
  for (; b < kBuckets - 1; ++b) {
    seen += bucket(b);
    if (seen >= rank) break;
  }
  const int64_t edge =
      b == 0 ? 0
             : static_cast<int64_t>((uint64_t{1} << b) - 1);  // 2^b - 1
  // max() lags the buckets while a Record is in flight.
  const int64_t hi = max();
  return hi < 0 ? edge : std::min(edge, hi);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::SetValueCallback(const std::string& name,
                                       std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_[name] = std::move(fn);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, int64_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) fn(name, gauge->value());
}

std::string MetricsRegistry::ToJson() const {
  // Callbacks may re-enter other components' locks; sample them outside
  // mu_ from a snapshot.
  std::vector<std::pair<std::string, std::function<int64_t()>>> callbacks;
  std::string out = "{";
  bool first = true;
  auto field = [&](const std::string& name, int64_t value) {
    if (!first) out += ",\n ";
    first = false;
    AppendJsonString(&out, name);
    out += ": ";
    out += std::to_string(value);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) field(name, c->value());
    for (const auto& [name, g] : gauges_) field(name, g->value());
    for (const auto& [name, h] : histograms_) {
      const int64_t n = h->count();
      field(name + ".count", n);
      field(name + ".sum", h->sum());
      field(name + ".min", n > 0 ? h->min() : 0);
      field(name + ".max", n > 0 ? h->max() : 0);
      if (!first) out += ",\n ";
      AppendJsonString(&out, name + ".avg");
      out += ": ";
      AppendJsonDouble(&out, n > 0 ? static_cast<double>(h->sum()) / n : 0.0);
      field(name + ".p50", h->Percentile(0.50));
      field(name + ".p90", h->Percentile(0.90));
      field(name + ".p99", h->Percentile(0.99));
    }
    for (const auto& [name, fn] : callbacks_) callbacks.emplace_back(name, fn);
  }
  for (const auto& [name, fn] : callbacks) field(name, fn());
  out += "}\n";
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write metrics file " + path);
  out << ToJson();
  if (!out.flush()) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

MetricsRegistry* GlobalMetrics() {
  return g_metrics.load(std::memory_order_relaxed);
}

void SetGlobalMetrics(MetricsRegistry* registry) {
  g_metrics.store(registry, std::memory_order_release);
}

Counter* GlobalCounter(const std::string& name) {
  MetricsRegistry* m = GlobalMetrics();
  return m != nullptr ? m->counter(name) : nullptr;
}

Gauge* GlobalGauge(const std::string& name) {
  MetricsRegistry* m = GlobalMetrics();
  return m != nullptr ? m->gauge(name) : nullptr;
}

Histogram* GlobalHistogram(const std::string& name) {
  MetricsRegistry* m = GlobalMetrics();
  return m != nullptr ? m->histogram(name) : nullptr;
}

}  // namespace iolap
