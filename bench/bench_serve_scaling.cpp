// Extension experiment: sharded serving + the parallel group-by engine.
//
// scan_scaling — uncached query throughput over one maintained EDB at 8
// shards across thread counts {1, 2, 4, 8}; every answer is cross-checked
// against the serial QueryEngine (relative 1e-9; the chunked merge is
// deterministic but rounds in a different order than a row-by-row fold)
// into `sharded_correct`. The headline number is speedup at 8 threads vs 1
// (target >= 3x on a machine with >= 8 cores); `speedup_ok` lands in the
// JSON and CI asserts it only when the runner has the cores
// (`hardware_concurrency` is emitted so the gate is auditable).
//
// Shard isolation and byte-identical answers across shard counts are
// ctest properties (serve_concurrent_test), not measurements.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "edb/maintenance.h"
#include "serve/query_service.h"

using namespace iolap;

namespace {

struct RollProbe {
  QueryRegion region;
  int dim;
  int level;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto obs = ObsFromFlags(flags);
  const int64_t facts_n = flags.GetInt("facts", 30'000);
  const int64_t buffer_pages = flags.GetInt("buffer_pages", 4096);
  const int64_t rounds = flags.GetInt("rounds", 3);
  JsonWriter json(flags.GetString("json", "BENCH_serve_scaling.json"));

  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  DatasetSpec spec = AutomotiveLikeSpec(facts_n, 29);
  StorageEnv env(MakeWorkDir("serve_scaling_bench"), buffer_pages);
  TypedFile<FactRecord> facts = Unwrap(GenerateFacts(env, schema, spec));
  AllocationOptions options;
  auto manager =
      Unwrap(MaintenanceManager::Build(env, schema, &facts, options));
  const int64_t hw =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  std::printf("facts=%lld edb_rows=%lld hardware_concurrency=%lld\n",
              static_cast<long long>(facts_n),
              static_cast<long long>(manager->edb().size()),
              static_cast<long long>(hw));

  // Probe workload: grand totals, level-2 slices, and rollups at two
  // hierarchy levels (the second one high-cardinality enough to matter).
  std::vector<QueryRegion> point_probes = {QueryRegion::All()};
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (schema.dim(d).num_levels() < 3) continue;
    for (NodeId node : schema.dim(d).nodes_at_level(2)) {
      point_probes.push_back(QueryRegion::All().With(d, node));
    }
  }
  std::vector<RollProbe> roll_probes = {{QueryRegion::All(), 0, 1},
                                        {QueryRegion::All(), 0, 2},
                                        {QueryRegion::All(), 1, 1}};
  const int64_t queries_per_round =
      static_cast<int64_t>(point_probes.size() + roll_probes.size());

  auto run_probes =
      [&](QueryService& service) -> std::vector<AggregateResult> {
    std::vector<AggregateResult> out;
    for (const QueryRegion& probe : point_probes) {
      out.push_back(
          Unwrap(service.UncachedAggregate(probe, AggregateFunc::kSum)));
    }
    for (const RollProbe& p : roll_probes) {
      std::vector<AggregateResult> groups = Unwrap(
          service.UncachedRollUp(p.region, p.dim, p.level,
                                 AggregateFunc::kSum));
      out.insert(out.end(), groups.begin(), groups.end());
    }
    return out;
  };

  // The serial oracle, once.
  QueryEngine engine(&env, &schema, &manager->edb());
  std::vector<AggregateResult> oracle;
  for (const QueryRegion& probe : point_probes) {
    oracle.push_back(Unwrap(engine.Aggregate(probe, AggregateFunc::kSum)));
  }
  for (const RollProbe& p : roll_probes) {
    std::vector<AggregateResult> groups =
        Unwrap(engine.RollUp(p.region, p.dim, p.level, AggregateFunc::kSum));
    oracle.insert(oracle.end(), groups.begin(), groups.end());
  }

  bool size_mismatch = false;
  double max_rel_err = 0;
  auto check = [&](const std::vector<AggregateResult>& got) {
    if (got.size() != oracle.size()) {
      size_mismatch = true;
      return;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      const double want = oracle[i].value;
      const double err =
          std::abs(got[i].value - want) / std::max(1.0, std::abs(want));
      max_rel_err = std::max(max_rel_err, err);
    }
  };

  std::printf("%-8s %8s %10s %10s %10s\n", "threads", "shards", "queries",
              "qps", "speedup");
  double serial_qps = 0;
  double speedup_at_8 = 0;
  struct ScalingRow {
    int threads;
    int shards;
    int64_t queries;
    double qps;
    double speedup;
  };
  std::vector<ScalingRow> scaling;
  for (const int threads : {1, 2, 4, 8}) {
    ServeOptions sopts;
    sopts.num_threads = threads;
    sopts.cache_slots = 0;  // pure scan path
    sopts.num_shards = 8;
    QueryService service(manager.get(), sopts);
    check(run_probes(service));  // warm the buffer pool + verify
    Stopwatch watch;
    for (int64_t r = 0; r < rounds; ++r) (void)run_probes(service);
    const double secs = watch.ElapsedSeconds();
    const int64_t queries = queries_per_round * rounds;
    const double qps = secs > 0 ? static_cast<double>(queries) / secs : 0;
    if (threads == 1) serial_qps = qps;
    const double speedup = serial_qps > 0 ? qps / serial_qps : 0;
    if (threads == 8) speedup_at_8 = speedup;
    scaling.push_back(
        ScalingRow{threads, service.num_shards(), queries, qps, speedup});
    std::printf("%-8d %8d %10lld %10.1f %10.2f\n", threads,
                service.num_shards(), static_cast<long long>(queries), qps,
                speedup);
  }
  const bool sharded_correct = !size_mismatch && max_rel_err <= 1e-9;
  const bool speedup_ok = speedup_at_8 >= 3.0;
  std::printf("max_rel_error=%.3g sharded_correct=%s\n", max_rel_err,
              sharded_correct ? "true" : "false");
  std::printf("speedup@8=%.2fx (target >= 3x, hw=%lld)\n", speedup_at_8,
              static_cast<long long>(hw));

  for (const ScalingRow& row : scaling) {
    json.BeginObject();
    json.Field("phase", "scan_scaling");
    json.Field("facts", facts_n);
    json.Field("threads", static_cast<int64_t>(row.threads));
    json.Field("shards", static_cast<int64_t>(row.shards));
    json.Field("queries", row.queries);
    json.Field("qps", row.qps);
    json.Field("speedup_vs_serial", row.speedup);
    json.Field("hardware_concurrency", hw);
    json.Field("speedup_ok", speedup_ok);
    json.Field("max_rel_error", max_rel_err);
    json.Field("sharded_correct", sharded_correct);
    json.EndObject();
  }
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return sharded_correct ? 0 : 1;
}
