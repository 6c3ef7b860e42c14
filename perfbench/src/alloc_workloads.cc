// Allocation workloads: repeated Allocator::Run over a freshly generated
// fact table (the same seed every time, so every repetition must produce
// the same EDB with the same page I/O).
//
//  alloc_auto  — ~1M automotive-like facts (no ALL), pool ~2% of the
//                working set. Many small components: component labelling,
//                in-memory EM and the preprocessing sort do the work.
//  alloc_giant — ~300k ALL-allowed facts, pool ~4%. One giant component is
//                iterated externally through the buffer pool, so the Block
//                window engine, pool misses and read-ahead dominate.

#include <cstdio>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common.h"
#include "datagen/table2.h"
#include "obs/obs.h"
#include "storage/storage_env.h"

namespace perfbench {

using namespace iolap;

namespace {

struct AllocWorkload {
  DatasetSpec data;
  int64_t buffer_pages = 0;
  int64_t large_components = 0;  // the shape the workload exists to test
};

/// Pages of the prepared working set (C plus the imprecise summary tables)
/// for a dataset of `facts` facts, 30% imprecise (the generator default).
int64_t WorkingSetPages(int64_t facts) {
  const int64_t cells = facts * 7 / 10;
  const int64_t imprecise = facts - cells;
  const int64_t cell_rpp = TypedFile<CellRecord>::kRecordsPerPage;
  const int64_t imp_rpp = TypedFile<ImpreciseRecord>::kRecordsPerPage;
  return (cells + cell_rpp - 1) / cell_rpp + (imprecise + imp_rpp - 1) / imp_rpp;
}

bool MakeWorkload(const std::string& name, uint64_t seed, AllocWorkload* w) {
  if (name == "alloc_auto") {
    w->data = AutomotiveLikeSpec(1'000'000, seed);
    w->buffer_pages = WorkingSetPages(w->data.num_facts) / 50;  // 2%
    w->large_components = 0;
  } else if (name == "alloc_giant") {
    w->data = AllSyntheticSpec(300'000, seed);
    // 4%: at 2% the second-largest component also outgrows the pool for
    // some seeds.
    w->buffer_pages = WorkingSetPages(w->data.num_facts) / 25;
    w->large_components = 1;
  } else {
    return false;
  }
  return true;
}

/// Everything measured about one allocation run.
struct AllocSample {
  double datagen_s = 0;
  double run_s = 0;
  AllocationResult result;  // EDB file handle dropped with its env
  IoStats disk;
  PoolStats pool;
  double cpu_s = 0;  // user + system, all threads
  double sys_s = 0;
  double vol_ctx_switches = 0;
  uint64_t edb_digest = 0;
};

/// Scans the EDB: every fact's weights must sum to 1 (facts the run could
/// not allocate have no rows), and the bytes are folded into a digest.
/// Fact ids are 1-based. Returns an empty string when the EDB is valid.
std::string CheckEdb(StorageEnv& env, const AllocationResult& r,
                     int64_t num_facts, uint64_t* digest) {
  std::vector<double> weight(static_cast<size_t>(num_facts) + 1, 0.0);
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto cursor = r.edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    const Status st = cursor.Next(&rec);
    if (!st.ok()) return "EDB scan: " + st.ToString();
    if (rec.fact_id < 1 || rec.fact_id > num_facts) {
      return "EDB row with fact id " + std::to_string(rec.fact_id);
    }
    weight[static_cast<size_t>(rec.fact_id)] += rec.weight;
    const auto* bytes = reinterpret_cast<const unsigned char*>(&rec);
    for (size_t i = 0; i < sizeof(rec); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  int64_t missing = 0;
  for (int64_t f = 1; f <= num_facts; ++f) {
    const double w = weight[static_cast<size_t>(f)];
    if (w == 0) {
      ++missing;
    } else if (std::abs(w - 1.0) > 1e-9) {
      return "fact " + std::to_string(f) + " weights sum to " +
             std::to_string(w);
    }
  }
  if (missing != r.unallocatable_facts) {
    return std::to_string(missing) + " facts without rows, run reported " +
           std::to_string(r.unallocatable_facts) + " unallocatable";
  }
  *digest = h;
  return "";
}

/// Generates the fact table and allocates it once in a fresh environment.
/// `op` tags the benchmark-side trace spans.
bool RunOnce(const Options& options, const StarSchema& schema,
             const AllocWorkload& w, int64_t op, Report* report,
             AllocSample* out) {
  StorageEnv env(MakeEnvDir(options, "alloc"), w.buffer_pages);
  Clock::time_point t0 = Clock::now();
  Result<TypedFile<FactRecord>> facts = [&] {
    TraceSpan span("bench.generate_facts");
    span.AddArg("op", op);
    return GenerateFacts(env, schema, w.data);
  }();
  out->datagen_s = SecondsSince(t0);
  if (!facts.ok()) {
    std::fprintf(stderr, "GenerateFacts: %s\n", facts.status().ToString().c_str());
    return false;
  }

  report->Attempt();
  const IoStats disk0 = env.disk().stats();
  const PoolStats pool0 = env.pool().stats();
  const Usage usage0 = Usage::Now();
  t0 = Clock::now();
  Result<AllocationResult> result = [&] {
    TraceSpan span("bench.allocator_run");
    span.AddArg("op", op);
    return Allocator::Run(env, schema, &*facts, AllocationOptions());
  }();
  out->run_s = SecondsSince(t0);
  const Usage usage1 = Usage::Now();
  out->cpu_s = usage1.user_s + usage1.sys_s - usage0.user_s - usage0.sys_s;
  out->sys_s = usage1.sys_s - usage0.sys_s;
  out->vol_ctx_switches =
      static_cast<double>(usage1.vol_ctx_switches - usage0.vol_ctx_switches);
  out->disk = env.disk().stats() - disk0;
  out->pool = env.pool().stats() - pool0;
  if (!result.ok()) {
    report->Fail("Allocator::Run: " + result.status().ToString());
    return true;
  }
  const std::string bad =
      CheckEdb(env, *result, w.data.num_facts, &out->edb_digest);
  if (!bad.empty()) report->Fail(bad);
  out->result = std::move(*result);
  return true;
}

double PageIo(const AllocationResult& r) {
  return static_cast<double>(r.prep_io.total() + r.alloc_io.total() +
                             r.emit_io.total());
}

/// Runs allocations until `seconds` have passed and at least `min_ops` ran.
bool RunLoop(const Options& options, const StarSchema& schema,
             const AllocWorkload& w, double seconds, int min_ops,
             int64_t first_op, Report* report,
             std::vector<AllocSample>* samples) {
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples->size()) < min_ops ||
         SecondsSince(start) < seconds) {
    AllocSample s;
    if (!RunOnce(options, schema, w, first_op + samples->size(), report, &s)) {
      return false;
    }
    samples->push_back(std::move(s));
  }
  return true;
}

template <typename F>
double MedianOf(const std::vector<AllocSample>& samples, F f) {
  std::vector<double> v;
  for (const AllocSample& s : samples) v.push_back(f(s));
  return Median(v);
}

void CheckRepeats(const AllocSample& first,
                  const std::vector<AllocSample>& samples, Report* report) {
  for (const AllocSample& s : samples) {
    if (s.edb_digest != first.edb_digest) {
      report->Fail("EDB digest differs between repetitions of one input");
    }
    if (PageIo(s.result) != PageIo(first.result)) {
      report->Fail("page I/O differs between repetitions of one input");
    }
  }
}

/// Medians over the repetitions of the disk and pool counter deltas taken
/// around Allocator::Run.
void SetStorage(Report* report, const std::vector<AllocSample>& samples) {
  const auto med = [&](auto f) { return MedianOf(samples, f); };
  report->Set("storage.page_reads", med([](const AllocSample& s) { return double(s.disk.page_reads); }));
  report->Set("storage.page_writes", med([](const AllocSample& s) { return double(s.disk.page_writes); }));
  report->Set("storage.prefetch_reads", med([](const AllocSample& s) { return double(s.disk.prefetch_reads); }));
  report->Set("storage.prefetch_hits", med([](const AllocSample& s) { return double(s.pool.prefetch_hits); }));
  report->Set("storage.prefetch_wasted", med([](const AllocSample& s) { return double(s.pool.prefetch_wasted); }));
  report->Set("storage.prefetch_gated", med([](const AllocSample& s) { return double(s.pool.prefetch_gated); }));
  report->Set("storage.prefetch_useful_frac", med([](const AllocSample& s) {
    return s.disk.prefetch_reads > 0 ? double(s.pool.prefetch_hits) / double(s.disk.prefetch_reads) : 0;
  }));
  report->Set("storage.pool_hits", med([](const AllocSample& s) { return double(s.pool.hits); }));
  report->Set("storage.pool_misses", med([](const AllocSample& s) { return double(s.pool.misses); }));
  report->Set("storage.pool_hit_rate", med([](const AllocSample& s) {
    const double pins = double(s.pool.hits + s.pool.misses);
    return pins > 0 ? double(s.pool.hits) / pins : 0;
  }));
  report->Set("storage.pool_evictions", med([](const AllocSample& s) { return double(s.pool.evictions); }));
  report->Set("storage.dirty_writebacks", med([](const AllocSample& s) { return double(s.pool.dirty_writebacks); }));
  report->Set("storage.writeback_batches", med([](const AllocSample& s) { return double(s.pool.writeback_batches); }));
}

}  // namespace

int RunAllocWorkload(const Options& options, Report* report) {
  AllocWorkload w;
  if (!MakeWorkload(options.workload, options.seed, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  Result<StarSchema> schema = MakeAutomotiveSchema();
  if (!schema.ok()) return 1;

  // Each repetition regenerates its input, so set-up is sampled once per
  // allocation; three repetitions at least give medians something to bite.
  std::vector<AllocSample> samples;
  if (!RunLoop(options, *schema, w, options.seconds, 3, 0, report, &samples)) {
    return 1;
  }

  // Same seed, same input: the EDB and the demand I/O must repeat exactly.
  const AllocSample& first = samples.front();
  CheckRepeats(first, samples, report);
  const ComponentCensus& census = first.result.components;
  if (census.num_large_components != w.large_components) {
    report->ShapeError(options.workload + " has " +
                       std::to_string(census.num_large_components) +
                       " large components, expected " +
                       std::to_string(w.large_components));
  }

  const double ops = static_cast<double>(samples.size());
  double run_total = 0;
  for (const AllocSample& s : samples) run_total += s.run_s;
  std::vector<double> run_ms;
  for (const AllocSample& s : samples) run_ms.push_back(s.run_s * 1e3);

  // End-to-end.
  report->Set("setup_s", MedianOf(samples, [](const AllocSample& s) { return s.datagen_s; }));
  report->Set("op_p50_ms", Median(run_ms));
  report->Set("ops_per_s", ops / run_total);
  if (!options.trace) return 0;

  // Per-layer, from the same untraced repetitions.
  const auto med = [&](auto f) { return MedianOf(samples, f); };
  const AllocationResult& r = first.result;
  report->SetLatency("op", "_ms", run_ms);
  report->Set("datagen.s", med([](const AllocSample& s) { return s.datagen_s; }));
  report->Set("alloc.prep_s", med([](const AllocSample& s) { return s.result.prep_seconds; }));
  report->Set("alloc.iterate_s", med([](const AllocSample& s) { return s.result.alloc_seconds; }));
  report->Set("alloc.emit_s", med([](const AllocSample& s) { return s.result.emit_seconds; }));
  report->Set("alloc.page_io", PageIo(r));
  report->Set("alloc.prep_page_io", static_cast<double>(r.prep_io.total()));
  report->Set("alloc.iterate_page_io", static_cast<double>(r.alloc_io.total()));
  report->Set("alloc.emit_page_io", static_cast<double>(r.emit_io.total()));
  report->Set("alloc.iterations", r.iterations);
  report->Set("alloc.component_iterations", static_cast<double>(census.total_component_iterations));
  report->Set("alloc.components", static_cast<double>(census.num_components));
  report->Set("alloc.large_components", static_cast<double>(census.num_large_components));
  report->Set("alloc.large_component_pages", static_cast<double>(census.large_component_pages));
  report->Set("alloc.peak_window_records", static_cast<double>(r.peak_window_records));
  SetStorage(report, samples);
  report->Set("proc.cpu_s", med([](const AllocSample& s) { return s.cpu_s; }));
  report->Set("proc.sys_frac", med([](const AllocSample& s) { return s.cpu_s > 0 ? s.sys_s / s.cpu_s : 0; }));
  report->Set("proc.vol_ctx_switches", med([](const AllocSample& s) { return s.vol_ctx_switches; }));

  // One traced repetition after the measured ones: spans from this file
  // around every public call plus the library's own. (One run of alloc_auto
  // already records ~600k trace events of the collector's 1M.)
  std::vector<AllocSample> traced;
  {
    ScopedObservability obs("", options.trace_path);
    if (!RunLoop(options, *schema, w, 0, 1, static_cast<int64_t>(samples.size()),
                 report, &traced)) {
      return 1;
    }
    report->Set("trace.dropped_events", static_cast<double>(obs.trace()->dropped_events()));
    const Status st = obs.Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  CheckRepeats(first, traced, report);
  std::vector<double> traced_ms;
  for (const AllocSample& s : traced) traced_ms.push_back(s.run_s * 1e3);
  report->Set("trace.op_p50_ms", Median(traced_ms));
  report->Set("trace.overhead_frac", Median(traced_ms) / Median(run_ms) - 1);
  return 0;
}

}  // namespace perfbench
