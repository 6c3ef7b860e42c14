// Extension experiment: the hierarchical aggregate index (src/aggidx).
//
// Measures what the index tier buys a served EDB on cache misses: per-query
// latency of (a) cold partitioned scans, (b) misses answered by the index
// tier (cache disabled, so every query takes the index path; these
// node-aligned probes are answered from the per-node store in
// src/synopsis), and (c) cache hits for scale. Every index answer is
// cross-checked against an uncached rescan; `index_correct` lands in the
// JSON so CI can assert it. The comparison is relative
// (1e-9 * max(1, |want|)): stored partials sum in key order while the scan
// sums rows in file order, so the two summation orders legitimately differ
// in the last bits at this scale.
// The headline number is index-miss-vs-cold speedup (target: >= 10x).

#include <cmath>
#include <cstdio>
#include <vector>

#include "aggidx/agg_index.h"
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
  const int rounds = static_cast<int>(flags.GetInt("rounds", 50));
  JsonWriter json(flags.GetString("json", "BENCH_agg_index.json"));

  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  DatasetSpec spec = AutomotiveLikeSpec(facts_n, 23);
  StorageEnv env(MakeWorkDir("aggidx_bench"), buffer_pages);
  TypedFile<FactRecord> facts = Unwrap(GenerateFacts(env, schema, spec));
  AllocationOptions options;
  auto manager =
      Unwrap(MaintenanceManager::Build(env, schema, &facts, options));

  // Probe set: the grand total plus one region per level-2 node of each
  // dimension — the dashboard panels a partial-aggregate tier is for.
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

  bool index_correct = true;
  auto check = [&](double got, double want) {
    const double tol = 1e-9 * std::max(1.0, std::abs(want));
    if (!(std::abs(got - want) <= tol)) index_correct = false;
  };

  // Phase 1 — cold partitioned scans (the no-index miss cost).
  ServeOptions scan_opts;
  scan_opts.num_threads = threads;
  scan_opts.cache_slots = 0;
  QueryService scan_service(manager.get(), scan_opts);
  std::vector<double> expected;
  Stopwatch cold_watch;
  for (const QueryRegion& probe : probes) {
    AggregateResult r =
        Unwrap(scan_service.UncachedAggregate(probe, AggregateFunc::kSum));
    expected.push_back(r.value);
  }
  const double cold_us =
      cold_watch.ElapsedSeconds() * 1e6 / static_cast<double>(num_probes);

  // Phase 2 — misses answered by the index tier. The cache is disabled, so
  // every Aggregate() is a miss and must be served by stored partials. The
  // service builds the cell tree at construction; one rebuild is timed
  // here.
  ServeOptions idx_opts;
  idx_opts.num_threads = threads;
  idx_opts.cache_slots = 0;
  idx_opts.agg_index = true;
  QueryService idx_service(manager.get(), idx_opts);
  Stopwatch build_watch;
  DieOnError(idx_service.agg_index()->Build());
  const double build_ms = build_watch.ElapsedSeconds() * 1e3;
  AggIndex::Stats istats = idx_service.agg_index()->stats();

  Stopwatch index_watch;
  for (int round = 0; round < rounds; ++round) {
    for (const QueryRegion& probe : probes) {
      (void)Unwrap(idx_service.Aggregate(probe, AggregateFunc::kSum));
    }
  }
  const double index_us = index_watch.ElapsedSeconds() * 1e6 /
                          static_cast<double>(num_probes * rounds);
  for (size_t i = 0; i < probes.size(); ++i) {
    AggregateResult r =
        Unwrap(idx_service.Aggregate(probes[i], AggregateFunc::kSum));
    check(r.value, expected[i]);
  }

  // Phase 3 — cache hits with the index tier behind them (full stack).
  ServeOptions full_opts;
  full_opts.num_threads = threads;
  full_opts.agg_index = true;
  QueryService full_service(manager.get(), full_opts);
  for (size_t i = 0; i < probes.size(); ++i) {
    AggregateResult r =
        Unwrap(full_service.Aggregate(probes[i], AggregateFunc::kSum));
    check(r.value, expected[i]);
  }
  Stopwatch hit_watch;
  for (int round = 0; round < rounds; ++round) {
    for (const QueryRegion& probe : probes) {
      (void)Unwrap(full_service.Aggregate(probe, AggregateFunc::kSum));
    }
  }
  const double hit_us = hit_watch.ElapsedSeconds() * 1e6 /
                        static_cast<double>(num_probes * rounds);

  const double speedup = index_us > 0 ? cold_us / index_us : 0;
  std::printf("%-22s %12s %12s\n", "phase", "queries", "avg_us");
  std::printf("%-22s %12lld %12.2f\n", "cold_scan",
              static_cast<long long>(num_probes), cold_us);
  std::printf("%-22s %12lld %12.2f  (build %.1f ms, %lld cells, %lld pages, "
              "height %lld)\n",
              "index_miss", static_cast<long long>(num_probes * rounds),
              index_us, build_ms, static_cast<long long>(istats.cells),
              static_cast<long long>(istats.pages),
              static_cast<long long>(istats.height));
  std::printf("%-22s %12lld %12.2f\n", "cache_hit",
              static_cast<long long>(num_probes * rounds), hit_us);
  std::printf(
      "index-miss speedup vs cold: %.1fx (target >= 10x); index_correct=%s\n",
      speedup, index_correct ? "true" : "false");

  json.BeginObject();
  json.Field("phase", "cold_scan");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes);
  json.Field("avg_us", cold_us);
  json.Field("index_correct", index_correct);
  json.EndObject();
  json.BeginObject();
  json.Field("phase", "index_miss");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes * rounds);
  json.Field("avg_us", index_us);
  json.Field("build_ms", build_ms);
  json.Field("index_cells", istats.cells);
  json.Field("index_pages", istats.pages);
  json.Field("index_height", istats.height);
  json.Field("speedup_vs_cold", speedup);
  json.Field("index_correct", index_correct);
  json.EndObject();
  json.BeginObject();
  json.Field("phase", "cache_hit");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes * rounds);
  json.Field("avg_us", hit_us);
  json.Field("index_correct", index_correct);
  json.EndObject();
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return index_correct ? 0 : 1;
}
