// Snapshot semantics under concurrency (run under TSan in CI): N query
// threads race a maintenance stream, and every returned aggregate must
// equal a serial rescan of the EDB at the generation the query pinned —
// i.e. no query ever observes a half-applied maintenance batch, and no
// invalidation ever lets a stale cached answer escape.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "serve/query_service.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

struct Probe {
  QueryRegion region;
  AggregateFunc func;
};

struct Observation {
  size_t probe = 0;
  int64_t generation = 0;
  double value = 0;
  bool ok = false;
};

TEST(ServeConcurrentTest, QueriesMatchSerialRescanAtPinnedGeneration) {
  StorageEnv env(MakeTempDir(), 256);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  StorageEnv scratch(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto gen_file,
                             MakePaperExampleFacts(scratch, schema));
  std::vector<FactRecord> facts;
  {
    auto cursor = gen_file.Scan(scratch.pool());
    FactRecord f;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&f));
      facts.push_back(f);
    }
  }
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env, facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));

  ServeOptions opts;
  opts.num_threads = 4;
  opts.min_partition_rows = 1;
  opts.cache_slots = 64;
  // The synopsis commits inside every mutation batch while queries race it
  // through the bounded tier — the probes below are all marginal regions,
  // so synopsis answers are exact and must match the rescan too.
  opts.synopsis = true;
  QueryService service(manager.get(), opts);

  std::vector<Probe> probes = {{QueryRegion::All(), AggregateFunc::kSum},
                               {QueryRegion::All(), AggregateFunc::kCount}};
  for (NodeId node : schema.dim(0).nodes_at_level(1)) {
    probes.push_back({QueryRegion::All().With(0, node), AggregateFunc::kSum});
    probes.push_back(
        {QueryRegion::All().With(0, node), AggregateFunc::kCount});
  }

  // The serial reference: one rescan per probe, recomputed by the mutation
  // thread after every commit while it alone controls when the EDB next
  // changes. Written only by the mutation thread, read after the joins.
  std::map<int64_t, std::vector<double>> expected;
  QueryEngine engine(&env, &schema, &manager->edb());
  auto rescan_all = [&]() -> Result<std::vector<double>> {
    std::vector<double> out;
    for (const Probe& p : probes) {
      IOLAP_ASSIGN_OR_RETURN(AggregateResult r,
                             engine.Aggregate(p.region, p.func));
      out.push_back(r.value);
    }
    return out;
  };
  IOLAP_ASSERT_OK_AND_ASSIGN(expected[0], rescan_all());

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 40;
  constexpr int kMutations = 6;

  Status mutation_status = Status::Ok();
  std::thread mutator([&] {
    // Alternates measure bumps on two precise facts (p1, p4); regions never
    // change, so the component structure stays put while values move.
    double m0 = facts[0].measure;
    double m3 = facts[3].measure;
    for (int round = 0; round < kMutations; ++round) {
      FactRecord before = facts[round % 2 == 0 ? 0 : 3];
      double& current = round % 2 == 0 ? m0 : m3;
      before.measure = current;
      current += 50 + round;
      Status s = service.ApplyUpdates({FactUpdate{before, current}});
      if (!s.ok()) {
        mutation_status = s;
        return;
      }
      const int64_t gen = service.generation();
      auto values = rescan_all();
      if (!values.ok()) {
        mutation_status = values.status();
        return;
      }
      expected[gen] = std::move(values).value();
    }
  });

  std::vector<std::vector<Observation>> observed(kQueryThreads);
  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      std::vector<Observation>& log = observed[t];
      log.reserve(kQueriesPerThread);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Observation obs;
        obs.probe = static_cast<size_t>(t * 31 + i * 7) % probes.size();
        if (i % 3 == 2) {
          // Bounded contract racing the mutation stream: every probe is a
          // marginal region, so an accepted synopsis answer has bound 0 and
          // must equal the pinned-generation rescan like any exact answer.
          AnswerStats as;
          Result<AggregateResult> r = service.Aggregate(
              probes[obs.probe].region, probes[obs.probe].func,
              AnswerSpec::Bounded(1e9), &as, &obs.generation);
          obs.ok = r.ok() && as.bound == 0;
          if (r.ok()) obs.value = r->value;
        } else {
          Result<AggregateResult> r = service.Aggregate(
              probes[obs.probe].region, probes[obs.probe].func,
              AnswerSpec::Exact(), nullptr, &obs.generation);
          obs.ok = r.ok();
          if (r.ok()) obs.value = r->value;
        }
        log.push_back(obs);
      }
    });
  }
  for (std::thread& t : queriers) t.join();
  mutator.join();
  IOLAP_ASSERT_OK(mutation_status);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kMutations) + 1);

  // Every observation must equal the serial rescan at its pinned
  // generation — across cache hits, misses, and invalidations.
  for (int t = 0; t < kQueryThreads; ++t) {
    for (const Observation& obs : observed[t]) {
      ASSERT_TRUE(obs.ok);
      auto it = expected.find(obs.generation);
      ASSERT_NE(it, expected.end())
          << "query pinned unknown generation " << obs.generation;
      EXPECT_NEAR(obs.value, it->second[obs.probe], 1e-9)
          << "thread " << t << " probe " << obs.probe << " generation "
          << obs.generation;
    }
  }
  // The workload re-asks the same probes between commits, so the cache must
  // have served some of it.
  EXPECT_GT(service.cache()->stats().hits, 0);
}

// ---------------------------------------------------------------------------
// Sharded serving.

StarSchema MakeShardedSchema() {
  std::vector<Hierarchy> dims;
  const std::vector<std::vector<int>> shapes = {{8, 4}, {4, 4}, {4, 2}};
  for (size_t d = 0; d < shapes.size(); ++d) {
    auto h = HierarchyBuilder::Uniform("D" + std::to_string(d), shapes[d]);
    EXPECT_TRUE(h.ok());
    dims.push_back(std::move(h).value());
  }
  auto schema = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

bool IsFullyPrecise(const StarSchema& schema, const FactRecord& f) {
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    if (h.leaf_end(f.node[d]) - h.leaf_begin(f.node[d]) != 1) return false;
  }
  return true;
}

/// The sharded fixture: 500 seeded facts over MakeShardedSchema, 30%
/// imprecise, behind a MaintenanceManager. `facts` receives the fact
/// table.
Result<std::unique_ptr<MaintenanceManager>> BuildShardedManager(
    StorageEnv& env, const StarSchema& schema,
    std::vector<FactRecord>* facts) {
  DatasetSpec spec;
  spec.num_facts = 500;
  spec.imprecise_fraction = 0.30;
  spec.seed = 21;
  IOLAP_ASSIGN_OR_RETURN(auto file, GenerateFacts(env, schema, spec));
  {
    auto cursor = file.Scan(env.pool());  // unpinned before Build sorts
    FactRecord f;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&f));
      facts->push_back(f);
    }
  }
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  return MaintenanceManager::Build(env, schema, &file, options);
}

// Per-shard torture: one mutator thread per (distinct) shard streams
// single-shard batches while query threads probe single-leaf regions of
// every shard. Every answer must equal a serial rescan at the *shard*
// generation the query pinned, and shards nobody mutates must never move —
// the per-shard analogue of the global snapshot contract above.
TEST(ServeConcurrentTest, ShardedTortureMatchesRescanAtPinnedShardGeneration) {
  StorageEnv env(MakeTempDir(), 512);
  StarSchema schema = MakeShardedSchema();
  std::vector<FactRecord> facts;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto manager,
                             BuildShardedManager(env, schema, &facts));

  ServeOptions opts;
  opts.num_threads = 2;
  opts.min_partition_rows = 1;  // snapped to one page: many small chunks
  opts.cache_slots = 128;
  opts.num_shards = 8;
  QueryService service(manager.get(), opts);
  ASSERT_GE(service.num_shards(), 2)
      << "component layout collapsed to one atom; pick another seed";
  const ShardMap& map = service.shard_map();
  const Hierarchy& h0 = schema.dim(0);
  EXPECT_EQ(map.shard_begin(0), 0);
  EXPECT_EQ(map.shard_end(service.num_shards() - 1), h0.num_leaves());

  // One probe per dimension-0 leaf node: each pins exactly one shard, and
  // together they partition every live row.
  std::vector<QueryRegion> probes;
  std::vector<int> probe_shard;
  for (NodeId node : h0.nodes_at_level(1)) {
    probes.push_back(QueryRegion::All().With(0, node));
    probe_shard.push_back(map.ShardOfLeaf(h0.leaf_begin(node)));
  }

  // The serial reference at shard generation 0, before any mutation.
  std::vector<double> expected0(probes.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        AggregateResult r,
        service.UncachedAggregate(probes[p], AggregateFunc::kSum));
    expected0[p] = r.value;
  }

  // Mutators own distinct shards via fully precise facts: a precise fact's
  // rect is one cell, and every component overlapping that cell lies in the
  // cell's shard (boundaries are component-aligned), so each batch locks
  // and bumps exactly its own shard.
  struct Owned {
    int shard = 0;
    size_t fact = 0;
  };
  std::vector<Owned> owned;
  std::vector<bool> shard_taken(service.num_shards(), false);
  for (size_t i = 0; i < facts.size() && owned.size() < 3; ++i) {
    if (!IsFullyPrecise(schema, facts[i])) continue;
    const int s = map.ShardOfLeaf(h0.leaf_begin(facts[i].node[0]));
    if (shard_taken[s]) continue;
    shard_taken[s] = true;
    owned.push_back(Owned{s, i});
  }
  ASSERT_GE(owned.size(), 2u);

  constexpr int kRounds = 5;
  // expected[m]: shard owned[m].shard's serial reference, keyed by that
  // shard's generation; written only by mutator m, read after the joins.
  std::vector<std::map<int64_t, std::vector<double>>> expected(owned.size());
  std::vector<Status> mutation_status(owned.size(), Status::Ok());
  std::vector<std::thread> mutators;
  for (size_t m = 0; m < owned.size(); ++m) {
    mutators.emplace_back([&, m] {
      const Owned& own = owned[m];
      FactRecord before = facts[own.fact];
      for (int round = 0; round < kRounds; ++round) {
        const double next = before.measure + 25 + round;
        Status s = service.ApplyUpdates({FactUpdate{before, next}});
        if (!s.ok()) {
          mutation_status[m] = s;
          return;
        }
        before.measure = next;
        // Re-derive this shard's probes at the generation the rescan pins
        // (stable: this thread is the only mutator of this shard).
        std::vector<double> values(probes.size(), 0);
        int64_t gen = -1;
        for (size_t p = 0; p < probes.size(); ++p) {
          if (probe_shard[p] != own.shard) continue;
          ShardSnapshot snap;
          auto r = service.UncachedAggregate(probes[p], AggregateFunc::kSum,
                                             nullptr, &snap);
          if (!r.ok()) {
            mutation_status[m] = r.status();
            return;
          }
          if (snap.generations.size() != 1) {
            mutation_status[m] = Status::Internal("probe spans shards");
            return;
          }
          gen = snap.generations[0];
          values[p] = r->value;
        }
        expected[m][gen] = std::move(values);
      }
    });
  }

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 60;
  struct ShardObservation {
    size_t probe = 0;
    int shard = 0;
    int64_t shard_gen = 0;
    double value = 0;
    bool ok = false;
    bool snap_ok = false;
  };
  std::vector<std::vector<ShardObservation>> observed(kQueryThreads);
  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      std::vector<ShardObservation>& log = observed[t];
      log.reserve(kQueriesPerThread);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        ShardObservation obs;
        obs.probe = static_cast<size_t>(t * 17 + i * 5) % probes.size();
        ShardSnapshot snap;
        Result<AggregateResult> r = service.Aggregate(
            probes[obs.probe], AggregateFunc::kSum, AnswerSpec::Exact(),
            nullptr, nullptr, &snap);
        obs.ok = r.ok();
        obs.snap_ok = snap.generations.size() == 1 &&
                      snap.first_shard == probe_shard[obs.probe];
        if (!snap.generations.empty()) obs.shard_gen = snap.generations[0];
        obs.shard = probe_shard[obs.probe];
        if (r.ok()) obs.value = r->value;
        log.push_back(obs);
      }
    });
  }
  for (std::thread& t : queriers) t.join();
  for (std::thread& t : mutators) t.join();
  for (size_t m = 0; m < owned.size(); ++m) IOLAP_ASSERT_OK(mutation_status[m]);

  // Shards no mutator owns must never have moved.
  for (int s = 0; s < service.num_shards(); ++s) {
    if (!shard_taken[s]) {
      EXPECT_EQ(service.shard_generation(s), 0) << s;
    }
  }
  // Every observation matches the serial rescan at its pinned shard
  // generation.
  std::vector<int> mutator_of_shard(service.num_shards(), -1);
  for (size_t m = 0; m < owned.size(); ++m) {
    mutator_of_shard[owned[m].shard] = static_cast<int>(m);
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    for (const ShardObservation& obs : observed[t]) {
      ASSERT_TRUE(obs.ok);
      ASSERT_TRUE(obs.snap_ok);
      const int m = mutator_of_shard[obs.shard];
      if (obs.shard_gen == 0) {
        EXPECT_NEAR(obs.value, expected0[obs.probe], 1e-9)
            << "probe " << obs.probe << " at shard generation 0";
        continue;
      }
      ASSERT_GE(m, 0) << "unmutated shard " << obs.shard
                      << " advanced to generation " << obs.shard_gen;
      auto it = expected[m].find(obs.shard_gen);
      ASSERT_NE(it, expected[m].end())
          << "query pinned unknown shard generation " << obs.shard_gen;
      EXPECT_NEAR(obs.value, it->second[obs.probe], 1e-9)
          << "thread " << t << " probe " << obs.probe << " shard "
          << obs.shard << " generation " << obs.shard_gen;
    }
  }
}

/// Parks a maintenance batch at its first EDB row change until Release().
/// The manager reports row changes from inside the batch, while the
/// service holds the batch's exclusive shard locks.
class ParkingListener : public EdbChangeListener {
 public:
  void OnAdd(const EdbRecord&) override { Park(); }
  void OnRemove(const EdbRecord&) override { Park(); }

  bool WaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

// Shard isolation, deterministically: a commit parked inside its batch
// holds only the shards it touches. With 4 shards, an update in the first
// shard must not delay a query over a node the last shard owns; with one
// shard, the same query must wait for the commit.
TEST(ServeConcurrentTest, ParkedCommitBlocksOnlyItsOwnShards) {
  using std::chrono::milliseconds;
  StorageEnv env(MakeTempDir(), 512);
  StarSchema schema = MakeShardedSchema();
  std::vector<FactRecord> facts;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto manager,
                             BuildShardedManager(env, schema, &facts));
  ServeOptions opts;
  opts.cache_slots = 0;
  // agg_index and synopsis stay off, so the service installs no change
  // listener of its own and the manager's slot is free for the test's.
  ASSERT_FALSE(opts.agg_index || opts.synopsis);

  // Chosen under the 4-shard geometry: a fully precise fact in the first
  // shard (its batch locks only that shard, see the torture test above)
  // and a dimension-0 node wholly owned by the last shard.
  size_t fact = facts.size();
  QueryRegion probe = QueryRegion::All();
  {
    opts.num_shards = 4;
    QueryService sharded(manager.get(), opts);
    const int last = sharded.num_shards() - 1;
    ASSERT_GE(last, 1) << "component layout collapsed to one shard";
    const ShardMap& map = sharded.shard_map();
    const Hierarchy& h0 = schema.dim(0);
    for (size_t i = 0; i < facts.size() && fact == facts.size(); ++i) {
      if (IsFullyPrecise(schema, facts[i]) &&
          map.ShardOfLeaf(h0.leaf_begin(facts[i].node[0])) == 0) {
        fact = i;
      }
    }
    for (NodeId node : h0.nodes_at_level(1)) {
      if (map.ShardOfLeaf(h0.leaf_begin(node)) == last &&
          map.ShardOfLeaf(h0.leaf_end(node) - 1) == last) {
        probe = QueryRegion::All().With(0, node);
        break;
      }
    }
  }
  ASSERT_LT(fact, facts.size()) << "no precise fact in the first shard";
  ASSERT_NE(probe.node[0], schema.dim(0).root()) << "no last-shard node";

  FactRecord before = facts[fact];
  for (const int num_shards : {4, 1}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    opts.num_shards = num_shards;
    QueryService service(manager.get(), opts);
    ParkingListener listener;
    manager->set_change_listener(&listener);
    const double next = before.measure + 10;
    Status update_status;
    std::thread writer([&] {
      update_status = service.ApplyUpdates({FactUpdate{before, next}});
    });
    const bool parked = listener.WaitParked(milliseconds(10'000));
    EXPECT_TRUE(parked) << "the update never reached its row changes";
    std::future<Status> query;
    if (parked) {
      query = std::async(std::launch::async, [&] {
        return service.UncachedAggregate(probe, AggregateFunc::kSum)
            .status();
      });
      if (num_shards > 1) {
        EXPECT_EQ(query.wait_for(milliseconds(10'000)),
                  std::future_status::ready)
            << "a query on the last shard waited for a commit on the first";
      } else {
        EXPECT_EQ(query.wait_for(milliseconds(200)),
                  std::future_status::timeout)
            << "a query shared the lock of an uncommitted batch";
      }
    }
    listener.Release();
    writer.join();
    manager->set_change_listener(nullptr);
    IOLAP_ASSERT_OK(update_status);
    before.measure = next;
    if (parked) {
      ASSERT_EQ(query.wait_for(milliseconds(10'000)),
                std::future_status::ready);
      IOLAP_EXPECT_OK(query.get());
    }
  }
}

// A chunk scan that fails on a pool worker fails the whole query: with 4
// scan threads and one-page chunks, a read fault on one mid-file EDB page
// must surface as that page's kIoError from both scan entry points.
TEST(ServeConcurrentTest, ParallelScanSurfacesMidFileReadFault) {
  StorageEnv env(MakeTempDir(), 512);
  StarSchema schema = MakeShardedSchema();
  std::vector<FactRecord> facts;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto manager,
                             BuildShardedManager(env, schema, &facts));
  const FileId edb = manager->edb().file_id();
  const int64_t pages = manager->edb().size_in_pages();
  ASSERT_GE(pages, 4) << "too few EDB pages for a mid-file fault";
  const PageId bad_page = static_cast<PageId>(pages / 2);
  IOLAP_ASSERT_OK(env.pool().EvictFile(edb));
  env.disk().SetFaultInjector([&](char op, FileId file, PageId page) {
    return op == 'r' && file == edb && page == bad_page
               ? Status::IoError("injected EDB read fault")
               : Status::Ok();
  });

  ServeOptions opts;
  opts.num_threads = 4;
  opts.min_partition_rows = 1;  // one page per chunk
  opts.cache_slots = 0;
  QueryService service(manager.get(), opts);
  Result<AggregateResult> agg =
      service.UncachedAggregate(QueryRegion::All(), AggregateFunc::kSum);
  EXPECT_EQ(agg.status().code(), StatusCode::kIoError);
  Result<std::vector<AggregateResult>> roll =
      service.UncachedRollUp(QueryRegion::All(), 0, 1, AggregateFunc::kSum);
  EXPECT_EQ(roll.status().code(), StatusCode::kIoError);

  // Without the fault the same service answers.
  env.disk().SetFaultInjector(nullptr);
  IOLAP_EXPECT_OK(
      service.UncachedAggregate(QueryRegion::All(), AggregateFunc::kSum)
          .status());
}

/// Runs `run_probes` on a fresh scan-only service per shard count
/// {1, 2, 8} x thread count {1, 4}: every answer must be 1e-9-equal to
/// `oracle` and byte-identical to the first configuration's.
template <typename RunProbes>
void ExpectStableAcrossShardsAndThreads(
    MaintenanceManager* manager, const RunProbes& run_probes,
    const std::vector<AggregateResult>& oracle) {
  std::vector<AggregateResult> baseline;
  for (const int num_shards : {1, 2, 8}) {
    for (const int num_threads : {1, 4}) {
      ServeOptions opts;
      opts.num_threads = num_threads;
      opts.min_partition_rows = 1;  // one page per chunk: max parallelism
      opts.cache_slots = 0;         // pure scan path
      opts.num_shards = num_shards;
      QueryService service(manager, opts);
      IOLAP_ASSERT_OK_AND_ASSIGN(std::vector<AggregateResult> got,
                                 run_probes(service));
      ASSERT_EQ(got.size(), oracle.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].value, oracle[i].value, 1e-9)
            << "probe " << i << " shards " << num_shards << " threads "
            << num_threads;
      }
      if (baseline.empty()) {
        baseline = std::move(got);
        continue;
      }
      ASSERT_EQ(0, std::memcmp(baseline.data(), got.data(),
                               baseline.size() * sizeof(AggregateResult)))
          << "answers not byte-identical at shards=" << num_shards
          << " threads=" << num_threads;
    }
  }
}

// Determinism across configurations: for a fixed chunk grid the service's
// answers must be byte-identical across shard counts {1, 2, 8} x thread
// counts {1, 4}, and 1e-9-equal to the serial QueryEngine oracle.
TEST(ServeConcurrentTest, AnswersBitwiseIdenticalAcrossShardsAndThreads) {
  StorageEnv env(MakeTempDir(), 512);
  StarSchema schema = MakeShardedSchema();
  DatasetSpec spec;
  spec.num_facts = 400;
  spec.imprecise_fraction = 0.35;
  spec.seed = 7;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));

  // The probe workload: point aggregates over every function, per-node
  // slices, and rollups at both hierarchy levels.
  struct RollProbe {
    QueryRegion region;
    int dim;
    int level;
    AggregateFunc func;
  };
  std::vector<Probe> point_probes;
  for (AggregateFunc f :
       {AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
        AggregateFunc::kMin, AggregateFunc::kMax}) {
    point_probes.push_back({QueryRegion::All(), f});
  }
  for (NodeId node : schema.dim(0).nodes_at_level(2)) {
    point_probes.push_back(
        {QueryRegion::All().With(0, node), AggregateFunc::kSum});
  }
  const NodeId slice = schema.dim(1).nodes_at_level(2)[1];
  std::vector<RollProbe> roll_probes = {
      {QueryRegion::All(), 0, 1, AggregateFunc::kSum},
      {QueryRegion::All(), 0, 2, AggregateFunc::kAverage},
      {QueryRegion::All().With(1, slice), 2, 1, AggregateFunc::kSum},
  };

  auto run_probes =
      [&](QueryService& service) -> Result<std::vector<AggregateResult>> {
    std::vector<AggregateResult> out;
    for (const Probe& p : point_probes) {
      IOLAP_ASSIGN_OR_RETURN(AggregateResult r,
                             service.UncachedAggregate(p.region, p.func));
      out.push_back(r);
    }
    for (const RollProbe& p : roll_probes) {
      IOLAP_ASSIGN_OR_RETURN(
          std::vector<AggregateResult> groups,
          service.UncachedRollUp(p.region, p.dim, p.level, p.func));
      out.insert(out.end(), groups.begin(), groups.end());
    }
    return out;
  };

  // The serial oracle.
  QueryEngine engine(&env, &schema, &manager->edb());
  std::vector<AggregateResult> oracle;
  for (const Probe& p : point_probes) {
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult r,
                               engine.Aggregate(p.region, p.func));
    oracle.push_back(r);
  }
  for (const RollProbe& p : roll_probes) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        std::vector<AggregateResult> groups,
        engine.RollUp(p.region, p.dim, p.level, p.func));
    oracle.insert(oracle.end(), groups.begin(), groups.end());
  }

  ExpectStableAcrossShardsAndThreads(manager.get(), run_probes, oracle);
}

// The same contract for a rollup wider than the dense accumulator limit
// (512 groups): Table 2's LOCATION leaves, 900 groups, which every chunk
// folds through LocalAcc's open-addressing hash — growing it — before the
// ordered merge.
TEST(ServeConcurrentTest, HighCardinalityRollUpBitwiseIdentical) {
  StorageEnv env(MakeTempDir(), 512);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  constexpr int kLocation = 3;
  constexpr int kLeafLevel = 1;
  ASSERT_EQ(schema.dim(kLocation).num_nodes_at_level(kLeafLevel), 900);
  DatasetSpec spec;
  spec.num_facts = 3000;
  spec.seed = 29;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));

  const QueryRegion slice =
      QueryRegion::All().With(1, schema.dim(1).nodes_at_level(1)[0]);
  const std::vector<QueryRegion> regions = {QueryRegion::All(), slice};
  const AggregateFunc funcs[] = {AggregateFunc::kSum, AggregateFunc::kAverage,
                                 AggregateFunc::kMax};
  auto run_probes =
      [&](QueryService& service) -> Result<std::vector<AggregateResult>> {
    std::vector<AggregateResult> out;
    for (const QueryRegion& region : regions) {
      for (AggregateFunc f : funcs) {
        IOLAP_ASSIGN_OR_RETURN(
            std::vector<AggregateResult> groups,
            service.UncachedRollUp(region, kLocation, kLeafLevel, f));
        out.insert(out.end(), groups.begin(), groups.end());
      }
    }
    return out;
  };
  QueryEngine engine(&env, &schema, &manager->edb());
  std::vector<AggregateResult> oracle;
  int64_t touched = 0;
  for (const QueryRegion& region : regions) {
    for (AggregateFunc f : funcs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(
          std::vector<AggregateResult> groups,
          engine.RollUp(region, kLocation, kLeafLevel, f));
      for (const AggregateResult& g : groups) touched += g.count > 0;
      oracle.insert(oracle.end(), groups.begin(), groups.end());
    }
  }
  // Enough distinct groups per query that the per-chunk hash must grow.
  ASSERT_GT(touched, 6 * 100);

  ExpectStableAcrossShardsAndThreads(manager.get(), run_probes, oracle);
}

}  // namespace
}  // namespace iolap
