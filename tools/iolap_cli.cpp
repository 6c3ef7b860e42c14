// iolap_cli — run imprecise-OLAP allocation from the command line.
//
//   iolap_cli sample  --dir=out/
//       Writes a sample schema.csv + facts.csv (the paper's Table 1).
//
//   iolap_cli estimate --schema=s.csv --facts=f.csv [--sample=20000]
//       One cheap pass: predicts EM iterations and the largest connected
//       component before you commit to an algorithm and buffer size.
//
//   iolap_cli allocate --schema=s.csv --facts=f.csv --out=edb.csv
//       [--policy=count|measure|uniform] [--algorithm=transitive|block|
//        independent|basic] [--epsilon=0.005] [--buffer-pages=4096]
//       [--checkpoint-dir=ckpt/] [--checkpoint-every=N] [--resume=1]
//       Builds the Extended Database and writes it as CSV.
//       --checkpoint-dir persists restartable state there at iteration /
//       component boundaries (every N boundaries with --checkpoint-every);
//       --resume=1 continues a killed run from its newest valid checkpoint.
//       See docs/OPERATIONS.md.
//
//   iolap_cli query --schema=s.csv --facts=f.csv --dim=<name> --node=<name>
//       [--func=sum|count|avg]
//       Allocates, then answers one aggregation under all four semantics.
//
//   iolap_cli serve --schema=s.csv --facts=f.csv --serve-workload=trace.txt
//       [--serve-threads=4] [--cache-slots=4096] [--min-partition-rows=4096]
//       [--shards=1] [--agg-index=0]
//       [--agg-index=1]   # answer exact cache misses from stored partials:
//       # the per-node store when exact, else the aggregate index's tree
//       [--synopsis=1]    # maintain the moment synopsis for bounded answers
//       [--answer-mode=exact|bounded] [--delta=0.05]
//       # bounded: `agg` lines accept a probabilistic answer from the
//       # synopsis tier whenever its error bound fits --epsilon, which in
//       # bounded mode is the answer budget (the EM convergence epsilon
//       # then keeps its 0.005 default). `agg_bounded` lines carry their
//       # own epsilon/delta and ignore the global answer flags.
//       Builds the Extended Database behind the maintenance layer and
//       replays a query/mutation trace through the serving subsystem
//       (partitioned parallel scans + generation-versioned aggregate
//       cache). Trace grammar: serve/workload.h — one op per line,
//       '#' comments, strict parsing (a malformed line aborts the replay):
//         agg <sum|count|avg|min|max> [Dim=Node]...
//         agg_bounded <func> <epsilon> <delta> [Dim=Node]...
//         rollup <func> <Dim> <level> [Dim=Node]...
//         completions <fact_id>
//         update <fact_id> <measure>
//         insert <fact_id> <measure> [Dim=Node]...
//         delete <fact_id>
//         compact
//       The replay ends with per-op-type counts and tier statistics.
//
//   Every command also accepts [--metrics-out=m.json] [--trace-out=t.json]:
//   --metrics-out dumps a flat JSON object of run counters/gauges,
//   --trace-out records a Chrome trace_event span tree loadable in
//   Perfetto (https://ui.perfetto.dev) or chrome://tracing. With neither
//   flag, observability is fully disabled (zero-cost; identical I/O
//   counts).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "alloc/allocator.h"
#include "alloc/estimator.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "examples/example_util.h"
#include "io/csv.h"
#include "obs/obs.h"
#include "serve/query_service.h"
#include "serve/workload.h"

using namespace iolap;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: iolap_cli <sample|estimate|allocate|query|serve> "
               "[--flags]\n(see the header of tools/iolap_cli.cpp)\n");
  return 2;
}

AlgorithmKind ParseAlgorithm(const std::string& name) {
  if (name == "basic") return AlgorithmKind::kBasic;
  if (name == "independent") return AlgorithmKind::kIndependent;
  if (name == "block") return AlgorithmKind::kBlock;
  return AlgorithmKind::kTransitive;
}

PolicyKind ParsePolicy(const std::string& name) {
  if (name == "measure") return PolicyKind::kMeasure;
  if (name == "uniform") return PolicyKind::kUniform;
  return PolicyKind::kCount;
}

int CmdSample(const Flags& flags) {
  std::string dir = flags.GetString("dir", ".");
  {
    std::ofstream schema(dir + "/schema.csv");
    schema << "# dimension,parent,node (top-down; empty parent = under ALL)\n"
              "Location,,East\nLocation,,West\n"
              "Location,East,MA\nLocation,East,NY\n"
              "Location,West,TX\nLocation,West,CA\n"
              "Automobile,,Sedan\nAutomobile,,Truck\n"
              "Automobile,Sedan,Civic\nAutomobile,Sedan,Camry\n"
              "Automobile,Truck,F150\nAutomobile,Truck,Sierra\n";
  }
  {
    std::ofstream facts(dir + "/facts.csv");
    facts << "fact_id,Location,Automobile,measure\n"
             "1,MA,Civic,100\n2,MA,Sierra,150\n3,NY,F150,100\n"
             "4,CA,Civic,175\n5,CA,Sierra,50\n6,MA,Sedan,100\n"
             "7,MA,Truck,120\n8,CA,ALL,160\n9,East,Truck,190\n"
             "10,West,Sedan,200\n11,ALL,Civic,80\n12,ALL,F150,120\n"
             "13,West,Civic,70\n14,West,Sierra,90\n";
  }
  std::printf("wrote %s/schema.csv and %s/facts.csv (paper Table 1)\n",
              dir.c_str(), dir.c_str());
  return 0;
}

int CmdEstimate(const Flags& flags) {
  StarSchema schema = Unwrap(LoadSchemaCsv(flags.GetString("schema", "")));
  StorageEnv env(MakeWorkDir("cli"), flags.GetInt("buffer-pages", 4096));
  TypedFile<FactRecord> facts =
      Unwrap(LoadFactsCsv(env, schema, flags.GetString("facts", "")));
  EstimateOptions options;
  options.sample_size = flags.GetInt("sample", 20'000);
  options.epsilon = flags.GetDouble("epsilon", 0.005);
  AllocationEstimate est =
      Unwrap(EstimateAllocation(env, schema, facts, options));
  std::printf("facts: %" PRId64 " (sampled %" PRId64 ")\n", facts.size(),
              est.sampled_facts);
  std::printf("predicted EM iterations (eps=%g): %d\n", options.epsilon,
              est.estimated_iterations);
  std::printf("sampled components: %" PRId64 ", largest: %" PRId64
              " tuples (growth exponent %.2f)\n",
              est.sample_components, est.sample_largest_component,
              est.growth_exponent);
  if (est.giant_component) {
    std::printf("GIANT component detected: projected size ~%" PRId64
                " tuples — size the buffer accordingly or expect "
                "Transitive's external path\n",
                est.estimated_largest_component);
  } else {
    std::printf("components look local (largest >= %" PRId64
                " tuples); Transitive should keep everything in memory\n",
                est.estimated_largest_component);
  }
  return 0;
}

int CmdAllocate(const Flags& flags) {
  StarSchema schema = Unwrap(LoadSchemaCsv(flags.GetString("schema", "")));
  StorageEnv env(MakeWorkDir("cli"), flags.GetInt("buffer-pages", 4096));
  TypedFile<FactRecord> facts =
      Unwrap(LoadFactsCsv(env, schema, flags.GetString("facts", "")));
  AllocationOptions options;
  options.policy = ParsePolicy(flags.GetString("policy", "count"));
  options.algorithm =
      ParseAlgorithm(flags.GetString("algorithm", "transitive"));
  options.epsilon = flags.GetDouble("epsilon", 0.005);
  options.checkpoint.directory = flags.GetString("checkpoint-dir", "");
  options.checkpoint.every =
      static_cast<int>(flags.GetInt("checkpoint-every", 1));
  options.checkpoint.resume = flags.GetInt("resume", 0) != 0;
  const int64_t num_facts = facts.size();
  AllocationResult result =
      Unwrap(Allocator::Run(env, schema, &facts, options));
  std::string out = flags.GetString("out", "edb.csv");
  DieOnError(WriteEdbCsv(env, schema, result.edb, out));
  std::printf("%s over %" PRId64 " facts (%" PRId64 " imprecise): "
              "%d iterations, %" PRId64 " EDB rows -> %s\n",
              AlgorithmName(options.algorithm), num_facts,
              result.num_imprecise, result.iterations, result.edb.size(),
              out.c_str());
  std::printf("phases: prep %.2fs / alloc %.2fs (%" PRId64
              " I/Os) / emit %.2fs; unallocatable facts: %" PRId64 "\n",
              result.prep_seconds, result.alloc_seconds,
              result.alloc_io.total(), result.emit_seconds,
              result.unallocatable_facts);
  if (options.algorithm == AlgorithmKind::kTransitive) {
    std::printf("components: %" PRId64 " (largest %" PRId64 " tuples)\n",
                result.components.num_components,
                result.components.largest_component);
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  StarSchema schema = Unwrap(LoadSchemaCsv(flags.GetString("schema", "")));
  StorageEnv env(MakeWorkDir("cli"), flags.GetInt("buffer-pages", 4096));
  TypedFile<FactRecord> facts =
      Unwrap(LoadFactsCsv(env, schema, flags.GetString("facts", "")));
  TypedFile<FactRecord> original =
      Unwrap(LoadFactsCsv(env, schema, flags.GetString("facts", "")));
  AllocationOptions options;
  options.policy = ParsePolicy(flags.GetString("policy", "count"));
  AllocationResult result =
      Unwrap(Allocator::Run(env, schema, &facts, options));

  QueryRegion region = QueryRegion::All();
  std::string dim_name = flags.GetString("dim", "");
  if (!dim_name.empty()) {
    int dim = -1;
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (schema.dim(d).dimension_name() == dim_name) dim = d;
    }
    if (dim < 0) {
      std::fprintf(stderr, "unknown dimension '%s'\n", dim_name.c_str());
      return 2;
    }
    NodeId node =
        Unwrap(schema.dim(dim).FindNode(flags.GetString("node", "ALL")));
    region.With(dim, node);
  }
  std::string func_name = flags.GetString("func", "sum");
  AggregateFunc func = func_name == "count" ? AggregateFunc::kCount
                       : func_name == "avg" ? AggregateFunc::kAverage
                                            : AggregateFunc::kSum;
  QueryEngine engine(&env, &schema, &result.edb, &original);
  struct Row {
    const char* label;
    ImpreciseSemantics semantics;
  } rows[] = {
      {"allocation-weighted", ImpreciseSemantics::kAllocationWeighted},
      {"none (precise only)", ImpreciseSemantics::kNone},
      {"contains", ImpreciseSemantics::kContains},
      {"overlaps", ImpreciseSemantics::kOverlaps},
  };
  std::printf("%s(%s) over %s=%s:\n", func_name.c_str(), "measure",
              dim_name.empty() ? "ALL" : dim_name.c_str(),
              flags.GetString("node", "ALL").c_str());
  for (const Row& row : rows) {
    AggregateResult r = Unwrap(engine.Aggregate(region, func, row.semantics));
    std::printf("  %-22s %14.4f\n", row.label, r.value);
  }
  return 0;
}

const char* FuncName(AggregateFunc func) {
  switch (func) {
    case AggregateFunc::kSum: return "sum";
    case AggregateFunc::kCount: return "count";
    case AggregateFunc::kAverage: return "avg";
    case AggregateFunc::kMin: return "min";
    case AggregateFunc::kMax: return "max";
  }
  return "?";
}

/// Replays one parsed trace op against the service. `catalog` mirrors the
/// current fact table so update/delete can supply the stored record the
/// maintenance layer expects; `spec` is the global answer contract applied
/// to plain `agg` lines (agg_bounded lines carry their own).
Status ReplayOp(const StarSchema& schema, QueryService& service,
                std::unordered_map<FactId, FactRecord>& catalog,
                const AnswerSpec& spec, const TraceOp& op) {
  switch (op.type) {
    case TraceOpType::kAgg:
    case TraceOpType::kAggBounded: {
      const AnswerSpec op_spec =
          op.type == TraceOpType::kAggBounded
              ? AnswerSpec::Bounded(op.epsilon, op.delta)
              : spec;
      int64_t gen = 0;
      AnswerStats as;
      IOLAP_ASSIGN_OR_RETURN(
          AggregateResult r,
          service.Aggregate(op.region, op.func, op_spec, &as, &gen));
      std::printf("%s %-5s -> %14.4f  (gen %" PRId64 ", tier %s, bound %g)\n",
                  TraceOpName(op.type), FuncName(op.func), r.value, gen,
                  AnswerTierName(as.tier), as.bound);
      return Status::Ok();
    }
    case TraceOpType::kRollUp: {
      int64_t gen = 0;
      bool hit = false;
      IOLAP_ASSIGN_OR_RETURN(
          auto groups,
          service.RollUp(op.region, op.dim, op.level, op.func, &gen, &hit));
      std::printf("rollup %s by %s@%d -> %zu groups (gen %" PRId64 ", %s)\n",
                  FuncName(op.func),
                  schema.dim(op.dim).dimension_name().c_str(), op.level,
                  groups.size(), gen, hit ? "hit" : "miss");
      const auto& nodes = schema.dim(op.dim).nodes_at_level(op.level);
      for (size_t i = 0; i < groups.size(); ++i) {
        std::printf("  %-12s %14.4f\n",
                    schema.dim(op.dim).name(nodes[i]).c_str(),
                    groups[i].value);
      }
      return Status::Ok();
    }
    case TraceOpType::kCompletions: {
      int64_t gen = 0;
      IOLAP_ASSIGN_OR_RETURN(auto rows,
                             service.CompletionsOf(op.fact_id, &gen));
      std::printf("completions %" PRId64 " -> %zu cells (gen %" PRId64 ")\n",
                  op.fact_id, rows.size(), gen);
      for (const EdbRecord& rec : rows) {
        std::printf("  weight %.4f measure %.2f\n", rec.weight, rec.measure);
      }
      return Status::Ok();
    }
    case TraceOpType::kUpdate: {
      auto it = catalog.find(op.fact_id);
      if (it == catalog.end()) {
        return Status::InvalidArgument("update: unknown fact id");
      }
      IOLAP_RETURN_IF_ERROR(
          service.ApplyUpdates({FactUpdate{it->second, op.measure}}));
      it->second.measure = op.measure;
      std::printf("update %" PRId64 " -> gen %" PRId64 "\n", op.fact_id,
                  service.generation());
      return Status::Ok();
    }
    case TraceOpType::kInsert: {
      FactRecord f;
      f.fact_id = op.fact_id;
      f.measure = op.measure;
      for (int d = 0; d < schema.num_dims(); ++d) {
        f.node[d] = op.region.node[d];
        f.level[d] = static_cast<uint8_t>(
            f.node[d] == schema.dim(d).root()
                ? schema.dim(d).num_levels()
                : schema.dim(d).level(f.node[d]));
      }
      IOLAP_RETURN_IF_ERROR(service.InsertFacts({f}));
      catalog[f.fact_id] = f;
      std::printf("insert %" PRId64 " -> gen %" PRId64 "\n", f.fact_id,
                  service.generation());
      return Status::Ok();
    }
    case TraceOpType::kDelete: {
      auto it = catalog.find(op.fact_id);
      if (it == catalog.end()) {
        return Status::InvalidArgument("delete: unknown fact id");
      }
      IOLAP_RETURN_IF_ERROR(service.DeleteFacts({it->second}));
      catalog.erase(it);
      std::printf("delete %" PRId64 " -> gen %" PRId64 "\n", op.fact_id,
                  service.generation());
      return Status::Ok();
    }
    case TraceOpType::kCompact: {
      IOLAP_ASSIGN_OR_RETURN(int64_t removed, service.Compact());
      std::printf("compact -> removed %" PRId64 " tombstones\n", removed);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unhandled workload op");
}

int CmdServe(const Flags& flags) {
  StarSchema schema = Unwrap(LoadSchemaCsv(flags.GetString("schema", "")));
  StorageEnv env(MakeWorkDir("cli"), flags.GetInt("buffer-pages", 4096));
  TypedFile<FactRecord> facts =
      Unwrap(LoadFactsCsv(env, schema, flags.GetString("facts", "")));
  std::unordered_map<FactId, FactRecord> catalog;
  {
    auto cursor = facts.Scan(env.pool());
    FactRecord f;
    while (!cursor.done()) {
      DieOnError(cursor.Next(&f));
      catalog[f.fact_id] = f;
    }
  }
  // The answer contract for plain `agg` lines. In bounded mode --epsilon is
  // the answer budget, so the EM epsilon keeps its default.
  AnswerSpec spec = AnswerSpec::Exact();
  const std::string answer_mode = flags.GetString("answer-mode", "exact");
  if (answer_mode == "bounded") {
    spec = AnswerSpec::Bounded(flags.GetDouble("epsilon", 0.0),
                               flags.GetDouble("delta", 0.05));
  } else if (answer_mode != "exact") {
    std::fprintf(stderr,
                 "unknown --answer-mode=%s (exact|bounded), keeping exact\n",
                 answer_mode.c_str());
  }

  AllocationOptions options;
  options.policy = ParsePolicy(flags.GetString("policy", "count"));
  if (answer_mode != "bounded") {
    options.epsilon = flags.GetDouble("epsilon", 0.005);
  }
  auto manager =
      Unwrap(MaintenanceManager::Build(env, schema, &facts, options));

  ServeOptions sopts;
  sopts.num_threads = static_cast<int>(flags.GetInt("serve-threads", 4));
  sopts.min_partition_rows = flags.GetInt("min-partition-rows", 4096);
  sopts.cache_slots = flags.GetInt("cache-slots", 4096);
  sopts.agg_index = flags.GetInt("agg-index", 0) != 0;
  sopts.synopsis = flags.GetInt("synopsis", 1) != 0;
  sopts.num_shards = static_cast<int>(flags.GetInt("shards", 1));
  QueryService service(manager.get(), sopts);

  std::string workload = flags.GetString("serve-workload", "");
  if (workload.empty()) {
    std::fprintf(stderr, "serve requires --serve-workload=<trace file>\n");
    return 2;
  }
  std::ifstream in(workload);
  if (!in) {
    std::fprintf(stderr, "cannot open workload '%s'\n", workload.c_str());
    return 2;
  }
  int64_t op_counts[kNumTraceOpTypes] = {};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    TraceOp op;
    Result<bool> parsed = ParseTraceOp(schema, line, &op);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s:%d: %s\n", workload.c_str(), line_no,
                   parsed.status().message().c_str());
      return 2;
    }
    if (!*parsed) continue;  // blank / comment line
    ++op_counts[static_cast<int>(op.type)];
    DieOnError(ReplayOp(schema, service, catalog, spec, op));
  }
  std::printf("served with %d shard(s)\n", service.num_shards());
  std::printf("ops:");
  for (int t = 0; t < kNumTraceOpTypes; ++t) {
    if (op_counts[t] > 0) {
      std::printf(" %s=%" PRId64, TraceOpName(static_cast<TraceOpType>(t)),
                  op_counts[t]);
    }
  }
  std::printf("\n");
  if (service.cache() != nullptr) {
    AggregateCache::Stats stats = service.cache()->stats();
    std::printf("served at generation %" PRId64
                ": cache hits %" PRId64 " / misses %" PRId64
                " (evicted %" PRId64 ", invalidated %" PRId64 ")\n",
                service.generation(), stats.hits, stats.misses,
                stats.evicted_entries, stats.invalidated_entries);
  }
  if (service.agg_index() != nullptr) {
    AggIndex::Stats istats = service.agg_index()->stats();
    std::printf("agg index: %" PRId64 " probes over %" PRId64
                " cells / %" PRId64 " pages (height %" PRId64
                "), %" PRId64 " builds, %" PRId64 " refreshes, %" PRId64
                " cells patched\n",
                istats.probes, istats.cells, istats.pages, istats.height,
                istats.builds, istats.refreshes, istats.cells_patched);
  }
  if (service.synopsis() != nullptr) {
    SynopsisStore::Stats sstats = service.synopsis()->stats();
    std::printf("synopsis: %" PRId64 " estimates (%" PRId64
                " exact), %" PRId64 " builds, %" PRId64
                " commits, %" PRId64 " entries patched\n",
                sstats.estimates, sstats.exact_hits, sstats.builds,
                sstats.commits, sstats.patched);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv);
  ScopedObservability obs(flags.GetString("metrics-out", ""),
                          flags.GetString("trace-out", ""));
  std::string command = argv[1];
  int rc = 2;
  if (command == "sample") rc = CmdSample(flags);
  else if (command == "estimate") rc = CmdEstimate(flags);
  else if (command == "allocate") rc = CmdAllocate(flags);
  else if (command == "query") rc = CmdQuery(flags);
  else if (command == "serve") rc = CmdServe(flags);
  else return Usage();
  DieOnError(obs.Finish());
  return rc;
}
