#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

/// Installs a registry/collector as the process globals for one test and
/// guarantees uninstall even when an assertion fails mid-test.
class ScopedGlobals {
 public:
  ScopedGlobals(MetricsRegistry* m, TraceCollector* t) {
    SetGlobalMetrics(m);
    SetGlobalTrace(t);
  }
  ~ScopedGlobals() {
    SetGlobalMetrics(nullptr);
    SetGlobalTrace(nullptr);
  }
};

TEST(MetricsTest, CounterConcurrentAdds) {
  MetricsRegistry registry;
  Counter* c = registry.counter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), int64_t{kThreads} * kAdds);
}

TEST(MetricsTest, HistogramConcurrentRecords) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("test.hist");
  constexpr int kThreads = 4;
  constexpr int kSamples = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kSamples; ++i) h->Record(t + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), int64_t{kThreads} * kSamples);
  EXPECT_EQ(h->sum(), int64_t{kSamples} * (1 + 2 + 3 + 4));
  EXPECT_EQ(h->min(), 1);
  EXPECT_EQ(h->max(), 4);
  // Log2 buckets: 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3.
  EXPECT_EQ(h->bucket(1), kSamples);
  EXPECT_EQ(h->bucket(2), 2 * kSamples);
  EXPECT_EQ(h->bucket(3), kSamples);
}

TEST(MetricsTest, HistogramBucketsAndEmptyState) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("test.hist2");
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->min(), INT64_MAX);
  EXPECT_EQ(h->max(), INT64_MIN);
  h->Record(0);
  EXPECT_EQ(h->bucket(0), 1);
  EXPECT_EQ(h->min(), 0);
  EXPECT_EQ(h->max(), 0);
}

TEST(MetricsTest, HistogramPercentilesFromLog2Buckets) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  EXPECT_EQ(h->Percentile(0.5), 0);  // empty
  // 50 zeros, 40 samples of 5 (bucket 3: [4, 8)), 9 of 100 (bucket 7:
  // [64, 128)) and one of 1000 (bucket 10: [512, 1024)).
  for (int i = 0; i < 50; ++i) h->Record(0);
  for (int i = 0; i < 40; ++i) h->Record(5);
  for (int i = 0; i < 9; ++i) h->Record(100);
  h->Record(1000);
  EXPECT_EQ(h->Percentile(0.50), 0);    // rank 50: still the zeros
  EXPECT_EQ(h->Percentile(0.51), 7);    // rank 51: bucket 3's upper edge
  EXPECT_EQ(h->Percentile(0.90), 7);    // rank 90
  EXPECT_EQ(h->Percentile(0.99), 127);  // rank 99: bucket 7
  EXPECT_EQ(h->Percentile(1.00), 1000);  // bucket 10's edge 1023, clamped
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"lat.p50\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat.p90\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat.p99\": 127"), std::string::npos) << json;

  // A single sample: every percentile is clamped to it.
  Histogram* one = registry.histogram("one");
  one->Record(37);
  EXPECT_EQ(one->Percentile(0.5), 37);
  EXPECT_EQ(one->Percentile(0.99), 37);
}

TEST(MetricsTest, RegistryGetOrCreateIsStable) {
  MetricsRegistry registry;
  Counter* a = registry.counter("same.name");
  Counter* b = registry.counter("same.name");
  EXPECT_EQ(a, b);
  EXPECT_NE(static_cast<void*>(registry.gauge("same.name.gauge")),
            static_cast<void*>(a));
}

TEST(MetricsTest, ToJsonEscapesNamesAndSamplesCallbacks) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\nescapes")->Add(3);
  registry.gauge("plain.gauge")->Set(-5);
  registry.histogram("h")->Record(2);
  registry.SetValueCallback("cb.value", [] { return int64_t{42}; });
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nescapes\": 3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"plain.gauge\": -5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cb.value\": 42"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
}

TEST(MetricsTest, DisabledModeIsNoOp) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  ASSERT_EQ(GlobalTrace(), nullptr);
  EXPECT_EQ(GlobalCounter("anything"), nullptr);
  EXPECT_EQ(GlobalGauge("anything"), nullptr);
  TraceSpan span("disabled.span");
  EXPECT_FALSE(span.enabled());
  span.AddArg("k", 1);
  span.End();  // must not crash, must not record anywhere
}

TEST(TraceTest, SpanNestingRecordsCompleteEvents) {
  MetricsRegistry registry;
  TraceCollector collector;
  ScopedGlobals install(&registry, &collector);
  registry.gauge("sampled.gauge")->Set(7);
  {
    TraceSpan outer("outer.span");
    {
      TraceSpan inner("inner.span");
      inner.AddArg("items", 12);
    }
  }
  const std::string json = collector.ToChromeJson();
  // Inner ends (and is recorded) before outer.
  const size_t inner_pos = json.find("\"inner.span\"");
  const size_t outer_pos = json.find("\"outer.span\"");
  ASSERT_NE(inner_pos, std::string::npos) << json;
  ASSERT_NE(outer_pos, std::string::npos) << json;
  EXPECT_LT(inner_pos, outer_pos);
  EXPECT_NE(json.find("\"items\":12"), std::string::npos) << json;
  // Span boundaries sample the installed gauges as counter tracks.
  EXPECT_NE(json.find("\"sampled.gauge\",\"ph\":\"C\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"value\":7}"), std::string::npos) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(TraceTest, SpansFromManyThreadsAllRecorded) {
  TraceCollector collector;
  ScopedGlobals install(nullptr, &collector);
  constexpr int kThreads = 8;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) TraceSpan span("thread.span");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.event_count(), size_t{kThreads} * kSpans);
  EXPECT_EQ(collector.dropped_events(), 0);
}

TEST(TraceTest, EventCapCountsDrops) {
  TraceCollector collector(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) collector.AddComplete("s", i, 1);
  EXPECT_EQ(collector.event_count(), 4u);
  EXPECT_EQ(collector.dropped_events(), 6);
}

TEST(JsonUtilTest, EscaperAndDoubleFormatting) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  out.clear();
  AppendJsonDouble(&out, std::numeric_limits<double>::infinity());
  AppendJsonDouble(&out, -std::numeric_limits<double>::infinity());
  AppendJsonDouble(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "nullnullnull");
  out.clear();
  AppendJsonDouble(&out, 1.5);
  EXPECT_EQ(out, "1.5");
}

/// The acceptance check from the issue: an allocation run published through
/// the registry must expose demand-I/O counters equal to the
/// AllocationResult fields, and instrumentation must not change the
/// result's I/O accounting relative to a run with observability disabled.
class ObsAllocationTest : public ::testing::Test {
 protected:
  AllocationResult RunPaperExample(StorageEnv* env) {
    auto schema_r = MakePaperExampleSchema();
    EXPECT_TRUE(schema_r.ok()) << schema_r.status().ToString();
    StarSchema schema = std::move(schema_r).value();
    auto facts_r = MakePaperExampleFacts(*env, schema);
    EXPECT_TRUE(facts_r.ok()) << facts_r.status().ToString();
    TypedFile<FactRecord> facts = std::move(facts_r).value();
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    auto result_r = Allocator::Run(*env, schema, &facts, options);
    EXPECT_TRUE(result_r.ok()) << result_r.status().ToString();
    return std::move(result_r).value();
  }
};

TEST_F(ObsAllocationTest, RegistryCountersMatchAllocationResult) {
  MetricsRegistry registry;
  TraceCollector collector;
  ScopedGlobals install(&registry, &collector);
  StorageEnv env(MakeTempDir(), 64);
  AllocationResult result = RunPaperExample(&env);

  EXPECT_EQ(registry.counter("alloc.prep_io.page_reads")->value(),
            result.prep_io.page_reads);
  EXPECT_EQ(registry.counter("alloc.prep_io.page_writes")->value(),
            result.prep_io.page_writes);
  EXPECT_EQ(registry.counter("alloc.alloc_io.page_reads")->value(),
            result.alloc_io.page_reads);
  EXPECT_EQ(registry.counter("alloc.alloc_io.page_writes")->value(),
            result.alloc_io.page_writes);
  EXPECT_EQ(registry.counter("alloc.emit_io.page_reads")->value(),
            result.emit_io.page_reads);
  EXPECT_EQ(registry.counter("alloc.emit_io.page_writes")->value(),
            result.emit_io.page_writes);
  EXPECT_EQ(registry.counter("alloc.iterations")->value(), result.iterations);
  EXPECT_EQ(registry.counter("alloc.num_cells")->value(), result.num_cells);
  EXPECT_EQ(registry.counter("alloc.num_imprecise")->value(),
            result.num_imprecise);
  EXPECT_EQ(registry.counter("alloc.edges_emitted")->value(),
            result.edges_emitted);

  // The run produced a span tree (alloc.run at minimum) with gauge tracks.
  EXPECT_GT(collector.event_count(), 0u);
  EXPECT_NE(collector.ToChromeJson().find("\"alloc.run\""),
            std::string::npos);
}

TEST_F(ObsAllocationTest, InstrumentationDoesNotChangeDemandIo) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  StorageEnv plain_env(MakeTempDir(), 64);
  AllocationResult plain = RunPaperExample(&plain_env);

  MetricsRegistry registry;
  TraceCollector collector;
  AllocationResult traced;
  {
    ScopedGlobals install(&registry, &collector);
    StorageEnv traced_env(MakeTempDir(), 64);
    traced = RunPaperExample(&traced_env);
  }

  EXPECT_EQ(plain.prep_io.page_reads, traced.prep_io.page_reads);
  EXPECT_EQ(plain.prep_io.page_writes, traced.prep_io.page_writes);
  EXPECT_EQ(plain.alloc_io.page_reads, traced.alloc_io.page_reads);
  EXPECT_EQ(plain.alloc_io.page_writes, traced.alloc_io.page_writes);
  EXPECT_EQ(plain.emit_io.page_reads, traced.emit_io.page_reads);
  EXPECT_EQ(plain.emit_io.page_writes, traced.emit_io.page_writes);
  EXPECT_EQ(plain.iterations, traced.iterations);
  EXPECT_EQ(plain.edges_emitted, traced.edges_emitted);
}

TEST(ScopedObservabilityTest, WritesValidFilesAndUninstalls) {
  const std::string dir = MakeTempDir();
  const std::string metrics_path = dir + "/metrics.json";
  const std::string trace_path = dir + "/trace.json";
  {
    ScopedObservability obs(metrics_path, trace_path);
    ASSERT_TRUE(obs.enabled());
    ASSERT_EQ(GlobalMetrics(), obs.metrics());
    ASSERT_EQ(GlobalTrace(), obs.trace());
    GlobalCounter("scoped.counter")->Add(9);
    { TraceSpan span("scoped.span"); }
    IOLAP_ASSERT_OK(obs.Finish());
    EXPECT_EQ(GlobalMetrics(), nullptr);
    EXPECT_EQ(GlobalTrace(), nullptr);
  }
  std::ifstream metrics_in(metrics_path);
  std::string metrics_json((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_json.find("\"scoped.counter\": 9"), std::string::npos);
  std::ifstream trace_in(trace_path);
  std::string trace_json((std::istreambuf_iterator<char>(trace_in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(trace_json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace_json.find("\"scoped.span\""), std::string::npos);
}

TEST(ScopedObservabilityTest, DefaultConstructedIsInert) {
  ScopedObservability obs;
  EXPECT_FALSE(obs.enabled());
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(GlobalTrace(), nullptr);
  IOLAP_ASSERT_OK(obs.Finish());
}

}  // namespace
}  // namespace iolap
