// Substrate micro-benchmarks (google-benchmark): buffer-pool pin latency,
// external-sort throughput, R-tree search, and hierarchy ancestor lookup —
// the hot primitives under every allocation pass.

#include <benchmark/benchmark.h>

#include "alloc/allocator.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/query.h"
#include "examples/example_util.h"
#include "rtree/paged_rtree.h"
#include "storage/external_sort.h"
#include "storage/storage_env.h"

namespace iolap {
namespace {

struct Rec {
  int64_t key;
  int64_t payload;
};

// Sort order with the sorter's normalized key (sign bit flipped, so
// unsigned prefix order is signed key order).
struct RecLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
  uint64_t KeyPrefix(const Rec& a) const {
    return static_cast<uint64_t>(a.key) ^ (uint64_t{1} << 63);
  }
};

void BM_BufferPoolPinHit(benchmark::State& state) {
  StorageEnv env(MakeWorkDir("micro_pin"), 64);
  auto file = Unwrap(TypedFile<Rec>::Create(env.disk(), "t"));
  for (int i = 0; i < 1000; ++i) {
    DieOnError(file.Append(env.pool(), Rec{i, i}));
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto guard = env.pool().Pin(file.file_id(), i % file.size_in_pages());
    benchmark::DoNotOptimize(guard->data());
    ++i;
  }
}
BENCHMARK(BM_BufferPoolPinHit);

void BM_BufferPoolPinMissEvict(benchmark::State& state) {
  StorageEnv env(MakeWorkDir("micro_miss"), 4);
  auto file = Unwrap(TypedFile<Rec>::Create(env.disk(), "t"));
  const int64_t pages = 64;
  for (int64_t i = 0; i < pages * TypedFile<Rec>::kRecordsPerPage; ++i) {
    DieOnError(file.Append(env.pool(), Rec{i, i}));
  }
  DieOnError(env.pool().FlushAll());
  int64_t i = 0;
  for (auto _ : state) {
    auto guard = env.pool().Pin(file.file_id(), i % pages);
    benchmark::DoNotOptimize(guard->data());
    i += 7;  // stride defeats the tiny pool
  }
}
BENCHMARK(BM_BufferPoolPinMissEvict);

void BM_ExternalSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  StorageEnv env(MakeWorkDir("micro_sort"), 64);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    auto file = Unwrap(TypedFile<Rec>::Create(env.disk(), "s"));
    auto appender = file.MakeAppender(env.pool());
    for (int64_t i = 0; i < n; ++i) {
      DieOnError(appender.Append(Rec{static_cast<int64_t>(rng.Next()), i}));
    }
    appender.Close();
    state.ResumeTiming();
    ExternalSorter<Rec> sorter(&env.disk(), &env.pool(), 16);
    DieOnError(sorter.Sort(&file, RecLess{}));
    state.PauseTiming();
    DieOnError(env.pool().EvictFile(file.file_id()));
    DieOnError(env.disk().DeleteFile(file.file_id()));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSort)->Arg(10'000)->Arg(100'000);

// The paged R-tree maintenance probes, at its full-page fan-out, with a
// pool large enough to keep the whole tree resident.
void BM_RTreeSearch(benchmark::State& state) {
  StorageEnv env(MakeWorkDir("micro_rtree"), 4096);
  PagedRTree tree =
      Unwrap(PagedRTree::Create(&env.disk(), &env.pool(), /*num_dims=*/4));
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    Rect r;
    for (int d = 0; d < 4; ++d) {
      r.lo[d] = static_cast<int32_t>(rng.Uniform(1000));
      r.hi[d] = r.lo[d] + static_cast<int32_t>(rng.Uniform(20));
    }
    DieOnError(tree.Insert(r, i));
  }
  std::vector<int64_t> hits;
  for (auto _ : state) {
    Rect q;
    for (int d = 0; d < 4; ++d) {
      q.lo[d] = static_cast<int32_t>(rng.Uniform(1000));
      q.hi[d] = q.lo[d] + 10;
    }
    hits.clear();
    DieOnError(tree.Search(q, &hits));
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeSearch)->Arg(1'000)->Arg(50'000);

void BM_EdbAggregate(benchmark::State& state) {
  StorageEnv env(MakeWorkDir("micro_query"), 4096);
  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  DatasetSpec spec;
  spec.num_facts = state.range(0);
  spec.seed = 11;
  auto facts = Unwrap(GenerateFacts(env, schema, spec));
  AllocationOptions options;
  AllocationResult result = Unwrap(Allocator::Run(env, schema, &facts, options));
  QueryEngine engine(&env, &schema, &result.edb);
  const Hierarchy& location = schema.dim(3);
  Rng rng(3);
  for (auto _ : state) {
    NodeId region = location.NodeAt(
        3, static_cast<int32_t>(rng.Uniform(location.num_nodes_at_level(3))));
    AggregateResult r = Unwrap(engine.Aggregate(
        QueryRegion::All().With(3, region), AggregateFunc::kSum));
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(state.iterations() * result.edb.size());
}
BENCHMARK(BM_EdbAggregate)->Arg(20'000)->Unit(benchmark::kMillisecond);

void BM_LeafAncestorOrdinal(benchmark::State& state) {
  StarSchema schema = Unwrap(MakeAutomotiveSchema());
  const Hierarchy& location = schema.dim(3);
  Rng rng(5);
  for (auto _ : state) {
    LeafId leaf = static_cast<LeafId>(rng.Uniform(location.num_leaves()));
    benchmark::DoNotOptimize(location.LeafAncestorOrdinal(leaf, 3));
  }
}
BENCHMARK(BM_LeafAncestorOrdinal);

}  // namespace
}  // namespace iolap

BENCHMARK_MAIN();
