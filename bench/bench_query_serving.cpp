// Extension experiment: the query-serving subsystem (src/serve).
//
// Measures what the generation-versioned aggregate cache buys on a served
// EDB: per-query latency of (a) cold partitioned scans, (b) cache hits,
// and (c) the first queries after a maintenance batch selectively
// invalidated the touched regions. Every cached answer is cross-checked
// against an uncached rescan (1e-9); `cache_correct` lands in the JSON so
// CI can assert it. The headline number is hit-vs-cold speedup (target:
// >= 10x).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "edb/maintenance.h"
#include "serve/query_service.h"

using namespace iolap;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto obs = ObsFromFlags(flags);
  const int64_t facts_n = flags.GetInt("facts", 60'000);
  const int64_t buffer_pages = flags.GetInt("buffer_pages", 4096);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const int64_t cache_slots = flags.GetInt("cache_slots", 4096);
  const int hit_rounds = static_cast<int>(flags.GetInt("hit_rounds", 50));
  JsonWriter json(flags.GetString("json", "BENCH_query_serving.json"));

  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  DatasetSpec spec = AutomotiveLikeSpec(facts_n, 23);
  StorageEnv env(MakeWorkDir("serve_bench"), buffer_pages);
  TypedFile<FactRecord> facts = Unwrap(GenerateFacts(env, schema, spec));
  std::vector<FactRecord> raw;
  {
    auto cursor = facts.Scan(env.pool());
    FactRecord f;
    while (!cursor.done()) {
      DieOnError(cursor.Next(&f));
      raw.push_back(f);
    }
  }
  AllocationOptions options;
  auto manager =
      Unwrap(MaintenanceManager::Build(env, schema, &facts, options));

  ServeOptions sopts;
  sopts.num_threads = threads;
  sopts.cache_slots = cache_slots;
  QueryService service(manager.get(), sopts);

  // Probe set: the grand total plus one region per level-2 node of each
  // dimension — the kind of dashboard panel a cache is for.
  std::vector<QueryRegion> probes = {QueryRegion::All()};
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (schema.dim(d).num_levels() < 3) continue;
    for (NodeId node : schema.dim(d).nodes_at_level(2)) {
      probes.push_back(QueryRegion::All().With(d, node));
    }
  }
  const int64_t num_probes = static_cast<int64_t>(probes.size());
  std::printf("facts=%lld edb_rows=%lld probes=%lld threads=%d\n",
              static_cast<long long>(facts_n),
              static_cast<long long>(manager->edb().size()),
              static_cast<long long>(num_probes), threads);

  bool cache_correct = true;
  auto check = [&](double got, double want) {
    if (!(got >= want - 1e-9 && got <= want + 1e-9)) cache_correct = false;
  };

  // Phase 1 — cold scans (no cache involvement), one per probe.
  std::vector<double> expected;
  Stopwatch cold_watch;
  for (const QueryRegion& probe : probes) {
    AggregateResult r =
        Unwrap(service.UncachedAggregate(probe, AggregateFunc::kSum));
    expected.push_back(r.value);
  }
  const double cold_us =
      cold_watch.ElapsedSeconds() * 1e6 / static_cast<double>(num_probes);

  // Phase 2 — populate (all misses), verifying against the cold values.
  for (size_t i = 0; i < probes.size(); ++i) {
    AggregateResult r =
        Unwrap(service.Aggregate(probes[i], AggregateFunc::kSum));
    check(r.value, expected[i]);
  }

  // Phase 3 — steady-state hits.
  Stopwatch hit_watch;
  for (int round = 0; round < hit_rounds; ++round) {
    for (const QueryRegion& probe : probes) {
      (void)Unwrap(service.Aggregate(probe, AggregateFunc::kSum));
    }
  }
  const double hit_us = hit_watch.ElapsedSeconds() * 1e6 /
                        static_cast<double>(num_probes * hit_rounds);
  for (size_t i = 0; i < probes.size(); ++i) {
    AnswerStats as;
    AggregateResult r = Unwrap(service.Aggregate(
        probes[i], AggregateFunc::kSum, AnswerSpec::Exact(), &as));
    if (!as.cache_hit) cache_correct = false;  // steady state: all hits
    check(r.value, expected[i]);
  }

  // Phase 4 — maintenance commit, then the first query wave over the same
  // probes: touched regions re-scan, untouched ones still hit.
  const int64_t invalidated_before =
      service.cache()->stats().invalidated_entries;
  FactUpdate update{raw[raw.size() / 2], raw[raw.size() / 2].measure + 10};
  DieOnError(service.ApplyUpdates({update}));
  const int64_t invalidated =
      service.cache()->stats().invalidated_entries - invalidated_before;

  Stopwatch post_watch;
  std::vector<double> post_values;
  for (const QueryRegion& probe : probes) {
    AggregateResult r =
        Unwrap(service.Aggregate(probe, AggregateFunc::kSum));
    post_values.push_back(r.value);
  }
  const double post_us =
      post_watch.ElapsedSeconds() * 1e6 / static_cast<double>(num_probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    AggregateResult r =
        Unwrap(service.UncachedAggregate(probes[i], AggregateFunc::kSum));
    check(post_values[i], r.value);
  }

  const double speedup = hit_us > 0 ? cold_us / hit_us : 0;
  std::printf("%-22s %12s %12s\n", "phase", "queries", "avg_us");
  std::printf("%-22s %12lld %12.2f\n", "cold_scan",
              static_cast<long long>(num_probes), cold_us);
  std::printf("%-22s %12lld %12.2f\n", "cache_hit",
              static_cast<long long>(num_probes * hit_rounds), hit_us);
  std::printf("%-22s %12lld %12.2f  (invalidated %lld entries)\n",
              "post_invalidation", static_cast<long long>(num_probes),
              post_us, static_cast<long long>(invalidated));
  std::printf("hit speedup vs cold: %.1fx (target >= 10x); cache_correct=%s\n",
              speedup, cache_correct ? "true" : "false");

  json.BeginObject();
  json.Field("phase", "cold_scan");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes);
  json.Field("avg_us", cold_us);
  json.Field("cache_correct", cache_correct);
  json.EndObject();
  json.BeginObject();
  json.Field("phase", "cache_hit");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes * hit_rounds);
  json.Field("avg_us", hit_us);
  json.Field("speedup_vs_cold", speedup);
  json.Field("cache_correct", cache_correct);
  json.EndObject();
  json.BeginObject();
  json.Field("phase", "post_invalidation");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes);
  json.Field("avg_us", post_us);
  json.Field("invalidated_entries", invalidated);
  json.Field("cache_correct", cache_correct);
  json.EndObject();
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return cache_correct ? 0 : 1;
}
