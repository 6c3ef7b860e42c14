// The aggregate index under concurrency (run under TSan in CI): query
// threads race a maintenance stream against a service whose cache misses
// are answered from the index tier — including concurrent lazy rebuilds
// triggered by dirty min/max rects. Every returned aggregate must equal a
// serial rescan of the EDB at the generation the query pinned.

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "aggidx/agg_index.h"
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

TEST(AggIdxConcurrentTest, IndexAnswersMatchSerialRescanAtPinnedGeneration) {
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

  // A small cache keeps both miss paths hot: some probes are cache hits,
  // the rest are answered by the index tier.
  ServeOptions opts;
  opts.cache_slots = 8;
  opts.agg_index = true;
  QueryService service(manager.get(), opts);
  ASSERT_NE(service.agg_index(), nullptr);

  // Min/max probes exercise the dirty-rect lazy rebuild concurrently with
  // the additive in-place patches. Node-aligned probes are answered by the
  // per-node store; the 2-dimension ones always reach the cell tree.
  std::vector<Probe> probes = {{QueryRegion::All(), AggregateFunc::kSum},
                               {QueryRegion::All(), AggregateFunc::kCount},
                               {QueryRegion::All(), AggregateFunc::kMax}};
  for (NodeId node : schema.dim(0).nodes_at_level(1)) {
    probes.push_back({QueryRegion::All().With(0, node), AggregateFunc::kSum});
    probes.push_back({QueryRegion::All().With(0, node), AggregateFunc::kMin});
  }
  const NodeId truck = schema.dim(1).nodes_at_level(2)[1];
  for (NodeId node : schema.dim(0).nodes_at_level(2)) {
    const QueryRegion cross = QueryRegion::All().With(0, node).With(1, truck);
    probes.push_back({cross, AggregateFunc::kSum});
    probes.push_back({cross, AggregateFunc::kMax});
  }

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
        Result<AggregateResult> r = service.Aggregate(
            probes[obs.probe].region, probes[obs.probe].func,
            AnswerSpec::Exact(), nullptr, &obs.generation);
        obs.ok = r.ok();
        if (r.ok()) obs.value = r->value;
        log.push_back(obs);
      }
    });
  }
  for (std::thread& t : queriers) t.join();
  mutator.join();
  IOLAP_ASSERT_OK(mutation_status);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kMutations) + 1);

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
  // The cell tree and the per-node store must both have carried traffic.
  EXPECT_GT(service.agg_index()->stats().probes, 0);
  EXPECT_GT(service.synopsis()->stats().exact_hits, 0);
}

}  // namespace
}  // namespace iolap
