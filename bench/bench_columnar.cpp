// Extension experiment: columnar compressed EDB extents (src/storage/extent,
// src/edb/columnar).
//
// Measures what the column-major mirror buys the serve layer's group-by
// scan (GroupByEngine, the path QueryService runs) on the same probe set,
// reading (a) the row-major EDB file and (b) the columnar mirror with
// projection — only weight, measure, and the constrained/group leaf
// columns are decoded. Two phases bracket QueryService's scan-format rule
// (build the mirror only when the EDB outgrows the pool):
//  * cold — the buffer pool is evicted before every probe, so each page
//    read hits the disk counter exactly once (the EDB-outgrows-the-pool
//    side);
//  * hot — one warming pass, then every probe reads pool-resident pages
//    (the pool-holds-the-EDB side), timed over kHotRounds passes.
// Every columnar answer is compared against the row-path answer (identical
// summation order, so they must agree bit for bit; `answers_match` uses
// the 1e-9 contract and lands in the JSON).
//
// Headline number: cold columnar/row data-page ratio on aggregate scans
// (target: <= 0.6x, asserted by CI from BENCH_columnar.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "edb/columnar.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/groupby.h"

using namespace iolap;

namespace {

struct Probe {
  QueryRegion region;
  int rollup_dim = -1;  // -1 = point aggregate, else RollUp at level 1
};

/// Timed passes of the hot phase: enough to smooth one pass's jitter.
constexpr int64_t kHotRounds = 5;

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto obs = ObsFromFlags(flags);
  const int64_t facts_n = flags.GetInt("facts", 60'000);
  const int64_t buffer_pages = flags.GetInt("buffer_pages", 4096);
  const int64_t rows_per_extent = flags.GetInt("rows_per_extent", 16384);
  JsonWriter json(flags.GetString("json", "BENCH_columnar.json"));

  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  DatasetSpec spec = AutomotiveLikeSpec(facts_n, 23);
  StorageEnv env(MakeWorkDir("columnar_bench"), buffer_pages);
  TypedFile<FactRecord> facts = Unwrap(GenerateFacts(env, schema, spec));
  AllocationOptions options;
  auto manager =
      Unwrap(MaintenanceManager::Build(env, schema, &facts, options));
  const TypedFile<EdbRecord>& edb = manager->edb();

  // The conversion step: one pass over the row file into compressed
  // column-major extents.
  Stopwatch convert_watch;
  ColumnarWriteOptions copts;
  copts.rows_per_extent = rows_per_extent;
  ColumnarEdb columnar = Unwrap(WriteColumnarEdb(env, schema, edb, copts));
  const double convert_ms = convert_watch.ElapsedSeconds() * 1e3;
  const int64_t row_file_pages =
      Unwrap(env.disk().SizeInPages(edb.file_id()));
  const int64_t col_file_pages = columnar.size_in_pages();

  // Probe set: the grand total, one region per level-2 node of each
  // dimension (dashboard panels — these constrain one leaf column), and a
  // level-1 rollup per dimension over the full cube.
  std::vector<Probe> probes = {{QueryRegion::All(), -1}};
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (schema.dim(d).num_levels() >= 3) {
      for (NodeId node : schema.dim(d).nodes_at_level(2)) {
        probes.push_back({QueryRegion::All().With(d, node), -1});
      }
    }
    probes.push_back({QueryRegion::All(), d});
  }
  const int64_t num_probes = static_cast<int64_t>(probes.size());
  std::printf(
      "facts=%lld edb_rows=%lld probes=%lld row_pages=%lld col_pages=%lld "
      "(convert %.1f ms)\n",
      static_cast<long long>(facts_n), static_cast<long long>(edb.size()),
      static_cast<long long>(num_probes),
      static_cast<long long>(row_file_pages),
      static_cast<long long>(col_file_pages), convert_ms);

  // One inline engine (no pool) over the whole EDB; the mirror argument
  // picks the format, exactly as QueryService passes it.
  GroupByEngine engine(&env, &schema, &edb, /*pool=*/nullptr,
                       GroupByOptions{});
  const std::vector<RowRange> all_rows = {RowRange{0, edb.size()}};
  const auto evict = [&] {
    (void)env.pool().EvictFile(edb.file_id());
    (void)env.pool().EvictFile(columnar.file_id());
  };
  const auto run = [&](const ColumnarEdb* mirror, const Probe& p,
                       std::vector<double>* values) -> Status {
    IOLAP_ASSIGN_OR_RETURN(
        auto groups, engine.RollUp(all_rows, p.region, p.rollup_dim, 1,
                                   AggregateFunc::kSum, nullptr, mirror));
    for (const AggregateResult& g : groups) values->push_back(g.value);
    return Status::Ok();
  };
  struct Phase {
    int64_t reads = 0;
    double cold_us = 0;
    double hot_us = 0;
    std::vector<double> cold_values;
    std::vector<double> hot_values;
  };
  const auto measure = [&](const ColumnarEdb* mirror) {
    Phase ph;
    // Cold: evict both files before every probe so IoStats::page_reads
    // counts exactly the data pages each scan demands.
    evict();
    const int64_t reads0 = env.disk().stats().page_reads;
    Stopwatch cold_watch;
    for (const Probe& p : probes) {
      evict();
      DieOnError(run(mirror, p, &ph.cold_values));
    }
    ph.cold_us =
        cold_watch.ElapsedSeconds() * 1e6 / static_cast<double>(num_probes);
    ph.reads = env.disk().stats().page_reads - reads0;
    // Hot: one untimed warming pass, then no eviction at all.
    for (const Probe& p : probes) DieOnError(run(mirror, p, &ph.hot_values));
    Stopwatch hot_watch;
    for (int64_t round = 0; round < kHotRounds; ++round) {
      ph.hot_values.clear();
      for (const Probe& p : probes) DieOnError(run(mirror, p, &ph.hot_values));
    }
    ph.hot_us = hot_watch.ElapsedSeconds() * 1e6 /
                static_cast<double>(num_probes * kHotRounds);
    return ph;
  };
  const Phase row = measure(nullptr);
  const Phase col = measure(&columnar);
  const int64_t row_reads = row.reads;
  const int64_t col_reads = col.reads;

  const auto same = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      const double tol = 1e-9 * std::max(1.0, std::abs(a[i]));
      if (!(std::abs(a[i] - b[i]) <= tol)) return false;
    }
    return true;
  };
  const bool answers_match = same(row.cold_values, col.cold_values) &&
                             same(row.cold_values, row.hot_values) &&
                             same(row.cold_values, col.hot_values);

  const double page_ratio =
      row_reads > 0 ? static_cast<double>(col_reads) /
                          static_cast<double>(row_reads)
                    : 0;
  const double file_ratio =
      row_file_pages > 0 ? static_cast<double>(col_file_pages) /
                               static_cast<double>(row_file_pages)
                         : 0;
  std::printf("%-14s %14s %12s %12s\n", "phase", "data_pages", "avg_us",
              "hot_avg_us");
  std::printf("%-14s %14lld %12.2f %12.2f\n", "row_scan",
              static_cast<long long>(row_reads), row.cold_us, row.hot_us);
  std::printf("%-14s %14lld %12.2f %12.2f\n", "columnar_scan",
              static_cast<long long>(col_reads), col.cold_us, col.hot_us);
  std::printf(
      "columnar/row data pages: %.3fx (target <= 0.6x); file size %.3fx; "
      "time cold %.2fx, hot %.2fx; answers_match=%s\n",
      page_ratio, file_ratio, col.cold_us / row.cold_us,
      col.hot_us / row.hot_us, answers_match ? "true" : "false");

  json.BeginObject();
  json.Field("phase", "row_scan");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes);
  json.Field("data_pages", row_reads);
  json.Field("file_pages", row_file_pages);
  json.Field("avg_us", row.cold_us);
  json.Field("hot_avg_us", row.hot_us);
  json.Field("answers_match", answers_match);
  json.EndObject();
  json.BeginObject();
  json.Field("phase", "columnar_scan");
  json.Field("facts", facts_n);
  json.Field("queries", num_probes);
  json.Field("data_pages", col_reads);
  json.Field("file_pages", col_file_pages);
  json.Field("avg_us", col.cold_us);
  json.Field("hot_avg_us", col.hot_us);
  json.Field("convert_ms", convert_ms);
  json.Field("rows_per_extent", rows_per_extent);
  json.Field("page_ratio_vs_row", page_ratio);
  json.Field("file_ratio_vs_row", file_ratio);
  json.Field("answers_match", answers_match);
  json.EndObject();
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return (answers_match && page_ratio <= 0.6) ? 0 : 1;
}
