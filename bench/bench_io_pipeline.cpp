// I/O pipeline benchmark: quantifies the storage-layer overhaul (parallel
// run generation, loser-tree block merge, batched write-back) against the
// fully serial pipeline on the Fig 5c automotive-like config.
//
// Part 1 sweeps the external-sort budget and times the sort phase alone
// (serial vs. pipelined, identical input bytes, byte-identity checked).
// Part 2 sweeps the buffer size over full allocations, reporting wall
// time and demand I/Os (which must equal the serial pipeline's).
//
// Results additionally land as a JSON array (--json=BENCH_io_pipeline.json)
// for perf-trajectory tracking.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "storage/external_sort.h"

using namespace iolap;

namespace {

struct SortOrder {
  bool operator()(const FactRecord& a, const FactRecord& b) const {
    int c = std::memcmp(a.node, b.node, sizeof(a.node));
    if (c != 0) return c < 0;
    return a.fact_id < b.fact_id;
  }
  // Normalized key: the first 8 bytes of `node` in memcmp (big-endian
  // byte) order.
  uint64_t KeyPrefix(const FactRecord& a) const {
    uint64_t prefix;
    std::memcpy(&prefix, a.node, sizeof(prefix));
    return __builtin_bswap64(prefix);
  }
};

struct SortMeasurement {
  double seconds = 0;
  IoStats io;
  uint64_t digest = 0;  // FNV-1a over the sorted file's pages
};

Result<SortMeasurement> TimeSort(const StarSchema& schema, int64_t facts,
                                 int64_t budget_pages,
                                 const IoPipelineOptions& io, int repeats) {
  SortMeasurement best;
  for (int rep = 0; rep < repeats; ++rep) {
    StorageEnv env(MakeWorkDir("io_pipe_sort"), budget_pages);
    TypedFile<FactRecord> file =
        Unwrap(GenerateFacts(env, schema, AutomotiveLikeSpec(facts)));
    ExternalSorter<FactRecord> sorter(&env.disk(), &env.pool(), budget_pages,
                                      io);
    IoStats before = env.disk().stats();
    Stopwatch watch;
    IOLAP_RETURN_IF_ERROR(sorter.Sort(&file, SortOrder{}));
    double seconds = watch.ElapsedSeconds();
    IoStats delta = env.disk().stats() - before;

    uint64_t digest = 1469598103934665603ull;
    std::vector<std::byte> page(kPageSize);
    for (int64_t p = 0; p < file.size_in_pages(); ++p) {
      IOLAP_RETURN_IF_ERROR(
          env.disk().ReadPage(file.file_id(), p, page.data()));
      for (std::byte b : page) {
        digest ^= static_cast<uint64_t>(b);
        digest *= 1099511628211ull;
      }
    }
    if (rep == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.io = delta;
    }
    best.digest = digest;  // identical across reps (same seed)
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  auto obs = ObsFromFlags(flags);
  const int64_t facts = flags.GetInt("facts", 100'000);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  JsonWriter json(flags.GetString("json", "BENCH_io_pipeline.json"));

  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  const int64_t data_pages = EstimateDataPages(facts, 0.3);
  std::printf("facts=%lld (Fig 5c automotive-like config), working set ~%lld "
              "pages\n",
              static_cast<long long>(facts),
              static_cast<long long>(data_pages));

  PrintHeader("external sort phase: serial vs. pipelined, by sort budget");
  std::printf("%-8s %10s %10s %8s %12s %12s %6s\n", "budget", "serial_s",
              "pipe_s", "speedup", "demand_io", "pipe_io", "ident");
  for (int64_t budget : {16, 64, 128, 256}) {
    SortMeasurement serial = Unwrap(TimeSort(schema, facts, budget,
                                             IoPipelineOptions::Serial(),
                                             repeats));
    SortMeasurement piped = Unwrap(TimeSort(schema, facts, budget,
                                            IoPipelineOptions{}, repeats));
    double speedup = piped.seconds > 0 ? serial.seconds / piped.seconds : 0;
    bool identical = serial.digest == piped.digest;
    std::printf("%-8lld %10.4f %10.4f %7.2fx %12lld %12lld %6s\n",
                static_cast<long long>(budget), serial.seconds, piped.seconds,
                speedup, static_cast<long long>(serial.io.total()),
                static_cast<long long>(piped.io.total()),
                identical ? "yes" : "NO");
    json.BeginObject();
    json.Field("section", "sort_phase");
    json.Field("facts", facts);
    json.Field("budget_pages", budget);
    json.Field("serial_seconds", serial.seconds);
    json.Field("pipeline_seconds", piped.seconds);
    json.Field("speedup", speedup);
    json.Field("serial_demand_io", serial.io.total());
    json.Field("pipeline_demand_io", piped.io.total());
    json.Field("byte_identical", identical);
    json.EndObject();
  }

  PrintHeader("full allocation: serial vs. pipelined, by buffer size");
  std::printf("%-8s %-12s %-9s %10s %12s %8s\n", "buffer", "algorithm",
              "pipeline", "wall_s", "demand_io", "speedup");
  const double kFractions[] = {0.031, 0.19};
  const char* kLabels[] = {"1MB", "6MB"};
  for (int b = 0; b < 2; ++b) {
    int64_t buffer_pages = std::max<int64_t>(
        16, static_cast<int64_t>(data_pages * kFractions[b]));
    for (AlgorithmKind algo :
         {AlgorithmKind::kBlock, AlgorithmKind::kTransitive}) {
      double serial_wall = 0;
      int64_t serial_demand = 0;
      for (int mode = 0; mode < 2; ++mode) {
        AllocationOptions options;
        options.algorithm = algo;
        options.epsilon = 0.1;  // Fig 5c
        options.io =
            mode == 0 ? IoPipelineOptions::Serial() : IoPipelineOptions{};
        double wall = 0;
        AllocationResult r;
        for (int rep = 0; rep < repeats; ++rep) {
          StorageEnv env(MakeWorkDir("io_pipe_alloc"), buffer_pages);
          TypedFile<FactRecord> file =
              Unwrap(GenerateFacts(env, schema, AutomotiveLikeSpec(facts)));
          Stopwatch watch;
          r = Unwrap(Allocator::Run(env, schema, &file, options));
          double rep_wall = watch.ElapsedSeconds();
          if (rep == 0 || rep_wall < wall) wall = rep_wall;
        }
        double speedup = 0;
        if (mode == 0) {
          serial_wall = wall;
          serial_demand = r.alloc_io.total();
        } else if (wall > 0) {
          speedup = serial_wall / wall;
        }
        std::printf("%-8s %-12s %-9s %10.3f %12lld %7.2fx\n", kLabels[b],
                    AlgorithmName(algo), mode == 0 ? "serial" : "on", wall,
                    static_cast<long long>(r.alloc_io.total()), speedup);
        json.BeginObject();
        json.Field("section", "allocation");
        json.Field("facts", facts);
        json.Field("buffer_pages", buffer_pages);
        json.Field("algorithm", AlgorithmName(algo));
        json.Field("pipeline", mode == 0 ? "serial" : "on");
        json.Field("wall_seconds", wall);
        json.Field("prep_seconds", r.prep_seconds);
        json.Field("alloc_seconds", r.alloc_seconds);
        json.Field("emit_seconds", r.emit_seconds);
        json.Field("alloc_demand_io", r.alloc_io.total());
        json.Field("speedup_vs_serial", speedup);
        // Pinned by the cost model: the pipeline must not change the demand
        // I/O the serial pipeline charges.
        json.Field("demand_io_identical",
                   mode == 0 || r.alloc_io.total() == serial_demand);
        json.EndObject();
      }
    }
  }

  if (json.Write()) std::printf("\nwrote %s\n", json.path().c_str());
  return 0;
}
