// Serving workloads: closed-loop clients against one QueryService.
//
//  serve_scan   — read-only service, cache / aggregate index / synopsis
//                 off, 4 shards, 4 scan threads, 4 reader clients. The EDB
//                 is several times the buffer pool, so every read is a
//                 parallel group-by scan that pins and misses pages.
//  serve_mixed  — maintained service with every tier on and an EDB that
//                 fits in the pool. 3 skewed reader clients and 1 writer
//                 client (small update / insert / delete batches, an
//                 occasional compaction). Reads are the measured operation;
//                 the writer's calls are reported per layer.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "common.h"
#include "common/rng.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "obs/obs.h"
#include "serve/query_service.h"
#include "storage/storage_env.h"

namespace perfbench {

using namespace iolap;

namespace {

enum ReadKind : int8_t { kAgg = 0, kRollup = 1, kBounded = 2 };
constexpr const char* kReadKindNames[] = {"agg", "rollup", "bounded"};
constexpr int kNoTier = -1;  // a rollup the index or the scan answered
constexpr const char* kTierNames[] = {"cache", "index", "synopsis", "scan"};

/// Error budget of bounded reads, in measure units. Generated measures lie
/// in [1, 250], so this is loose for sums and counts over large regions.
constexpr double kBoundedEpsilon = 1000;

constexpr int kWriterThinkMs = 10;

struct ServeWorkload {
  int64_t facts = 0;
  int64_t buffer_pages = 0;
  bool maintained = false;  // a writer client mutates the EDB
  int readers = 0;
  int64_t universe = 0;      // distinct read keys
  double skew = 1;           // key index = universe * u^skew
  int64_t warmup_reads = 0;  // part of set-up
  ServeOptions serve;
};

bool MakeWorkload(const std::string& name, ServeWorkload* w) {
  if (name == "serve_scan") {
    w->facts = 200'000;
    w->buffer_pages = 1024;
    w->readers = 4;
    w->universe = 512;
    w->warmup_reads = 8;
    w->serve.cache_slots = 0;
    w->serve.num_threads = 4;
    w->serve.num_shards = 4;
  } else if (name == "serve_mixed") {
    w->facts = 100'000;
    w->buffer_pages = 16384;
    w->maintained = true;
    w->readers = 3;
    // Several times the default cache's slot count, with a skewed pick so
    // some keys stay cached and the rest fall through to lower tiers.
    w->universe = 8 * ServeOptions().cache_slots;
    w->skew = 1.5;
    w->warmup_reads = 100;
    w->serve.agg_index = true;
    w->serve.synopsis = true;
    w->serve.num_shards = 4;
  } else {
    return false;
  }
  return true;
}

struct ReadKey {
  ReadKind kind = kAgg;
  QueryRegion region;
  AggregateFunc func = AggregateFunc::kSum;
  int dim = 0;  // rollups
  int level = 0;
};

/// A region constraining `n` distinct dimensions drawn from [first_dim,
/// num_dims) other than `skip_dim`, each to a random node below the root.
QueryRegion RandomRegion(const StarSchema& schema, Rng* rng, int n,
                         int first_dim, int skip_dim) {
  QueryRegion region = QueryRegion::All();
  const int span = schema.num_dims() - first_dim;
  for (int placed = 0; placed < n;) {
    const int d = first_dim + static_cast<int>(rng->Uniform(span));
    if (d == skip_dim || region.node[d] != 0) continue;
    const Hierarchy& h = schema.dim(d);
    const int level = 1 + static_cast<int>(rng->Uniform(h.num_levels() - 1));
    const auto& nodes = h.nodes_at_level(level);
    region.node[d] = nodes[rng->Uniform(nodes.size())];
    ++placed;
  }
  return region;
}

/// The read keys clients pick from. The mix of read kinds, functions and
/// region shapes is fixed by key index, so it is the same for every seed;
/// the seed only picks the nodes.
std::vector<ReadKey> MakeUniverse(const StarSchema& schema,
                                  const ServeWorkload& w, uint64_t seed) {
  static constexpr AggregateFunc kCheap[] = {
      AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage};
  static constexpr AggregateFunc kExtremes[] = {AggregateFunc::kMin,
                                                AggregateFunc::kMax};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<ReadKey> keys;
  for (int64_t i = 0; i < w.universe; ++i) {
    ReadKey k;
    const int64_t slot = i % 20;
    if (!w.maintained) {
      // Half aggregates, half rollups, none constraining dimension 0: every
      // read scans every shard.
      k.kind = slot < 10 ? kAgg : kRollup;
    } else {
      // 60% exact aggregates, 25% bounded, 15% rollups.
      k.kind = slot < 12 ? kAgg : (slot < 17 ? kBounded : kRollup);
    }
    const int first_dim = w.maintained ? 0 : 1;
    if (k.kind == kRollup) {
      k.func = kCheap[rng.Uniform(3)];
      k.dim = static_cast<int>(rng.Uniform(schema.num_dims()));
      const int top = schema.dim(k.dim).num_levels() - 1;
      // Level 2 and up: a leaf-level rollup would need a cache slot per
      // leaf.
      k.level = top <= 2 ? 2 : 2 + static_cast<int>(rng.Uniform(top - 1));
      k.region = RandomRegion(schema, &rng, static_cast<int>((i / 20) % 2),
                              first_dim, k.dim);
    } else {
      // One key in ten asks for an extreme. Once a commit removed rows
      // under its region the index cannot answer it, so in the maintained
      // workloads extremes are what reaches the synopsis and scan tiers.
      k.func = i % 10 == 5 ? kExtremes[rng.Uniform(2)] : kCheap[rng.Uniform(3)];
      k.region = RandomRegion(schema, &rng, 1 + static_cast<int>((i / 20) % 2),
                              first_dim, -1);
    }
    keys.push_back(k);
  }
  return keys;
}

/// One served read, as seen by its client.
struct ReadRecord {
  float us = 0;
  int8_t kind = kAgg;
  int8_t tier = kNoTier;
  bool overlapped_commit = false;
};

/// One writer call.
struct CommitRecord {
  double us = 0;
  bool has_stats = false;  // Compact reports no MaintenanceStats
  MaintenanceStats stats;
};

/// Set-up products. Declaration order is teardown order reversed: the
/// service goes first, the storage environment last.
struct ServeState {
  std::unique_ptr<StorageEnv> env;
  AllocationResult alloc;  // read-only mode: the EDB
  std::unique_ptr<MaintenanceManager> manager;
  std::unique_ptr<QueryService> service;
  std::vector<FactRecord> facts;  // maintained: the writer's view
  FactId next_fact_id = 0;

  void Reset() {
    service.reset();
    manager.reset();
    alloc = AllocationResult();
    env.reset();
    facts.clear();
  }
};

struct SetupTimes {
  double total_s = 0;
  double datagen_s = 0;
  double build_s = 0;  // Allocator::Run or MaintenanceManager::Build
  double init_s = 0;   // service construction and its first read
  double warmup_s = 0;
};

/// Serves `key` through the tiers; compares sampled reads with a rescan.
class Client {
 public:
  Client(QueryService* service, Report* report) : service_(service), report_(report) {}

  /// Serves `key`; fills `rec` and returns false on an error. `op` tags
  /// the benchmark-side trace spans of this read.
  bool Read(const ReadKey& key, int64_t op, ReadRecord* rec, bool verify);

  int64_t verified() const { return verified_; }
  int64_t generation_skips() const { return generation_skips_; }

 private:
  QueryService* service_;
  Report* report_;
  int64_t verified_ = 0;
  int64_t generation_skips_ = 0;
};

bool SameSnapshot(const ShardSnapshot& a, const ShardSnapshot& b) {
  return a.first_shard == b.first_shard && a.generations == b.generations;
}

bool Client::Read(const ReadKey& key, int64_t op, ReadRecord* rec, bool verify) {
  rec->kind = key.kind;
  ShardSnapshot snap;
  AnswerStats as;
  AggregateResult one;
  std::vector<AggregateResult> groups;
  bool ok = true;
  const Clock::time_point t0 = Clock::now();
  if (key.kind == kRollup) {
    bool hit = false;
    TraceSpan span("bench.rollup");
    span.AddArg("op", op);
    Result<std::vector<AggregateResult>> r =
        service_->RollUp(key.region, key.dim, key.level, key.func, nullptr, &hit, &snap);
    ok = r.ok();
    if (ok) groups = std::move(*r);
    if (hit) {
      rec->tier = static_cast<int8_t>(AnswerTier::kCache);
    } else if (service_->cache() == nullptr && service_->agg_index() == nullptr) {
      rec->tier = static_cast<int8_t>(AnswerTier::kScan);
    }
  } else {
    const AnswerSpec spec = key.kind == kBounded ? AnswerSpec::Bounded(kBoundedEpsilon)
                                                 : AnswerSpec::Exact();
    TraceSpan span(key.kind == kBounded ? "bench.bounded" : "bench.aggregate");
    span.AddArg("op", op);
    Result<AggregateResult> r =
        service_->Aggregate(key.region, key.func, spec, &as, nullptr, &snap);
    ok = r.ok();
    if (ok) {
      one = *r;
      rec->tier = static_cast<int8_t>(as.tier);
    }
  }
  rec->us = static_cast<float>(SecondsSince(t0) * 1e6);
  if (!ok) return false;
  if (!verify) return true;

  // The oracle: a rescan that bypasses every tier. Comparable only when it
  // pinned the same shard generations as the served read.
  ShardSnapshot oracle_snap;
  bool agree = true;
  TraceSpan span("bench.verify");
  span.AddArg("op", op);
  if (key.kind == kRollup) {
    Result<std::vector<AggregateResult>> want = service_->UncachedRollUp(
        key.region, key.dim, key.level, key.func, nullptr, &oracle_snap);
    if (!want.ok()) return false;
    if (!SameSnapshot(snap, oracle_snap)) {
      ++generation_skips_;
      return true;
    }
    agree = want->size() == groups.size();
    for (size_t i = 0; agree && i < groups.size(); ++i) {
      agree = Agrees(groups[i].value, (*want)[i].value);
    }
  } else {
    Result<AggregateResult> want =
        service_->UncachedAggregate(key.region, key.func, nullptr, &oracle_snap);
    if (!want.ok()) return false;
    if (!SameSnapshot(snap, oracle_snap)) {
      ++generation_skips_;
      return true;
    }
    // An exact answer must match; a bounded one must land within the bound
    // it promised.
    const double slack = as.exact ? 0 : as.bound;
    agree = std::abs(one.value - want->value) <=
            slack + 1e-9 * std::max(1.0, std::abs(want->value));
  }
  ++verified_;
  if (!agree) {
    report_->Fail(std::string("served ") + kReadKindNames[key.kind] +
                  " disagrees with the rescan");
  }
  return true;
}

/// The writer client: a closed loop of small mutation batches against the
/// maintained service, with a compaction every 24th call. It pauses
/// kWriterThinkMs between calls, so reads also run while no commit holds
/// shard locks.
class Writer {
 public:
  Writer(ServeState* state, uint64_t seed) : state_(state), rng_(seed) {}

  /// Makes the next call; returns false on an error. `op` tags the
  /// benchmark-side trace span.
  bool Next(int64_t op, CommitRecord* rec) {
    QueryService& service = *state_->service;
    std::vector<FactRecord>& facts = state_->facts;
    const int64_t call = calls_++;
    Status st;
    const Clock::time_point t0 = Clock::now();
    if (call % 24 == 23) {
      TraceSpan span("bench.compact");
      span.AddArg("op", op);
      st = service.Compact().status();
    } else if (call % 4 == 0 || call % 4 == 1) {
      std::vector<size_t> picks = Pick(4);
      std::vector<FactUpdate> updates;
      for (size_t i : picks) updates.push_back(FactUpdate{facts[i], NewMeasure()});
      TraceSpan span("bench.apply_updates");
      span.AddArg("op", op);
      st = service.ApplyUpdates(updates, &rec->stats);
      if (st.ok()) {
        for (size_t j = 0; j < picks.size(); ++j) {
          facts[picks[j]].measure = updates[j].new_measure;
        }
      }
    } else if (call % 4 == 2) {
      std::vector<FactRecord> inserts;
      for (size_t i : Pick(2)) {
        FactRecord f = facts[i];  // same region as an existing fact
        f.fact_id = state_->next_fact_id++;
        f.measure = NewMeasure();
        inserts.push_back(f);
      }
      TraceSpan span("bench.insert_facts");
      span.AddArg("op", op);
      st = service.InsertFacts(inserts, &rec->stats);
      if (st.ok()) facts.insert(facts.end(), inserts.begin(), inserts.end());
    } else {
      std::vector<size_t> picks = Pick(2);
      std::vector<FactRecord> deletes;
      for (size_t i : picks) deletes.push_back(facts[i]);
      TraceSpan span("bench.delete_facts");
      span.AddArg("op", op);
      st = service.DeleteFacts(deletes, &rec->stats);
      if (st.ok()) {
        // Remove from the back so earlier indices stay valid.
        std::sort(picks.rbegin(), picks.rend());
        for (size_t i : picks) {
          facts[i] = facts.back();
          facts.pop_back();
        }
      }
    }
    rec->us = SecondsSince(t0) * 1e6;
    rec->has_stats = call % 24 != 23;
    if (!st.ok()) std::fprintf(stderr, "writer: %s\n", st.ToString().c_str());
    return st.ok();
  }

 private:
  std::vector<size_t> Pick(size_t n) {
    std::vector<size_t> out;
    while (out.size() < n) {
      const size_t i = rng_.Uniform(state_->facts.size());
      if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
    }
    return out;
  }
  double NewMeasure() { return 1 + rng_.Uniform(250); }

  ServeState* state_;
  Rng rng_;
  int64_t calls_ = 0;
};

/// What one traffic phase produced.
struct TrafficResult {
  double seconds = 0;
  std::vector<ReadRecord> reads;
  std::vector<CommitRecord> commits;
  int64_t verified = 0;
  int64_t generation_skips = 0;
};

/// Runs the reader clients (and the writer, when maintained) for
/// `seconds`, or until `max_reads` reads completed.
TrafficResult RunTraffic(ServeState* state, const ServeWorkload& w,
                         const std::vector<ReadKey>& universe, uint64_t seed,
                         double seconds, int64_t max_reads, Report* report) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads_done{0};
  // Commit windows, so reads that overlapped a commit can be told apart.
  std::atomic<int64_t> commits_started{0};
  std::atomic<int64_t> commits_finished{0};
  std::vector<std::vector<ReadRecord>> per_reader(w.readers);
  std::vector<Client> clients(w.readers, Client(state->service.get(), report));
  std::atomic<int64_t> read_errors{0};
  std::atomic<int64_t> op_seq{0};  // joins the spans of one operation

  std::vector<std::thread> threads;
  for (int c = 0; c < w.readers; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(c));
      std::vector<ReadRecord>& out = per_reader[c];
      double busy_s = 0, verify_s = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const double u = rng.NextDouble();
        const ReadKey& key =
            universe[static_cast<size_t>(std::pow(u, w.skew) * universe.size())];
        // Rescans cost a full scan; keep them under ~5% of client time.
        const bool verify = verify_s * 20 < busy_s;
        const int64_t s0 = commits_started.load(std::memory_order_acquire);
        const int64_t f0 = commits_finished.load(std::memory_order_acquire);
        const Clock::time_point t0 = Clock::now();
        ReadRecord rec;
        if (!clients[c].Read(key, op_seq.fetch_add(1), &rec, verify)) {
          read_errors.fetch_add(1);
        }
        const double spent = SecondsSince(t0);
        busy_s += spent;
        if (verify) verify_s += spent - rec.us * 1e-6;
        rec.overlapped_commit =
            s0 != f0 || commits_started.load(std::memory_order_acquire) != s0;
        out.push_back(rec);
        if (reads_done.fetch_add(1, std::memory_order_relaxed) + 1 >= max_reads) {
          stop.store(true);
        }
      }
    });
  }
  std::vector<CommitRecord> commits;
  std::atomic<int64_t> commit_errors{0};
  if (w.maintained) {
    threads.emplace_back([&] {
      Writer writer(state, seed * 7919 + 13);
      while (!stop.load(std::memory_order_relaxed)) {
        CommitRecord rec;
        commits_started.fetch_add(1, std::memory_order_acq_rel);
        if (!writer.Next(op_seq.fetch_add(1), &rec)) commit_errors.fetch_add(1);
        commits_finished.fetch_add(1, std::memory_order_acq_rel);
        commits.push_back(std::move(rec));
        std::this_thread::sleep_for(std::chrono::milliseconds(kWriterThinkMs));
      }
    });
  }
  const Clock::time_point start = Clock::now();
  while (!stop.load() && SecondsSince(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  TrafficResult out;
  out.seconds = SecondsSince(start);
  for (auto& v : per_reader) out.reads.insert(out.reads.end(), v.begin(), v.end());
  out.commits = std::move(commits);
  for (const Client& c : clients) {
    out.verified += c.verified();
    out.generation_skips += c.generation_skips();
  }
  report->Attempt(static_cast<int64_t>(out.reads.size() + out.commits.size()));
  for (int64_t i = 0; i < read_errors.load(); ++i) report->Fail("read returned an error");
  for (int64_t i = 0; i < commit_errors.load(); ++i) report->Fail("writer call returned an error");
  return out;
}

bool Setup(const Options& options, const StarSchema& schema,
           const ServeWorkload& w, const std::vector<ReadKey>& universe,
           ServeState* state, SetupTimes* times, Report* report) {
  const Clock::time_point start = Clock::now();
  state->env = std::make_unique<StorageEnv>(MakeEnvDir(options, "serve"), w.buffer_pages);
  StorageEnv& env = *state->env;
  Clock::time_point t0 = Clock::now();
  Result<TypedFile<FactRecord>> facts =
      GenerateFacts(env, schema, AutomotiveLikeSpec(w.facts, options.seed));
  times->datagen_s = SecondsSince(t0);
  if (!facts.ok()) {
    std::fprintf(stderr, "GenerateFacts: %s\n", facts.status().ToString().c_str());
    return false;
  }
  t0 = Clock::now();
  if (w.maintained) {
    {
      // The writer needs the stored records to address updates and
      // deletes. (Scoped: the cursor pins its page until destroyed.)
      auto cursor = facts->Scan(env.pool());
      FactRecord f;
      while (!cursor.done()) {
        if (!cursor.Next(&f).ok()) return false;
        state->facts.push_back(f);
      }
    }
    state->next_fact_id = w.facts;
    Result<std::unique_ptr<MaintenanceManager>> manager =
        MaintenanceManager::Build(env, schema, &*facts, AllocationOptions());
    if (!manager.ok()) {
      std::fprintf(stderr, "Build: %s\n", manager.status().ToString().c_str());
      return false;
    }
    state->manager = std::move(*manager);
    times->build_s = SecondsSince(t0);
    t0 = Clock::now();
    state->service = std::make_unique<QueryService>(state->manager.get(), w.serve);
  } else {
    Result<AllocationResult> alloc =
        Allocator::Run(env, schema, &*facts, AllocationOptions());
    if (!alloc.ok()) {
      std::fprintf(stderr, "Allocator::Run: %s\n", alloc.status().ToString().c_str());
      return false;
    }
    state->alloc = std::move(*alloc);
    times->build_s = SecondsSince(t0);
    t0 = Clock::now();
    state->service = std::make_unique<QueryService>(&env, &schema, &state->alloc.edb, w.serve);
  }
  // Warm-up: the first read completes the service's lazy initialisation;
  // the rest fill the pool and the cache with hot keys.
  Client client(state->service.get(), report);
  for (int64_t i = 0; i < w.warmup_reads; ++i) {
    ReadRecord rec;
    if (!client.Read(universe[static_cast<size_t>(i) % universe.size()], -1, &rec, false)) {
      std::fprintf(stderr, "warm-up read failed\n");
      return false;
    }
    if (i == 0) {
      times->init_s = SecondsSince(t0);
      t0 = Clock::now();
    }
  }
  times->warmup_s = SecondsSince(t0);
  times->total_s = SecondsSince(start);
  return true;
}

/// Re-answers a fixed probe set at a quiescent point: every served answer
/// must agree with the rescan (the generations cannot move).
void QuiescentProbes(QueryService* service, const std::vector<ReadKey>& universe,
                     Report* report) {
  Client client(service, report);
  const size_t step = std::max<size_t>(1, universe.size() / 64);
  for (size_t i = 0; i < universe.size(); i += step) {
    ReadRecord rec;
    report->Attempt();
    if (!client.Read(universe[i], -1, &rec, true)) report->Fail("probe returned an error");
  }
  if (client.generation_skips() > 0) report->Fail("generations moved while quiescent");
}

std::vector<double> Latencies(const std::vector<ReadRecord>& reads,
                              bool (*keep)(const ReadRecord&, int), int arg) {
  std::vector<double> out;
  for (const ReadRecord& r : reads) {
    if (keep(r, arg)) out.push_back(r.us);
  }
  return out;
}

/// Library counters read around the measured phase.
struct Counters {
  IoStats disk;
  PoolStats pool;
  AggregateCache::Stats cache;
  AggIndex::Stats aggidx;
  SynopsisStore::Stats synopsis;
  Usage usage;

  static Counters Read(ServeState* state) {
    Counters c;
    QueryService& s = *state->service;
    c.disk = state->env->disk().stats();
    c.pool = state->env->pool().stats();
    if (s.cache() != nullptr) c.cache = s.cache()->stats();
    if (s.agg_index() != nullptr) c.aggidx = s.agg_index()->stats();
    if (s.synopsis() != nullptr) c.synopsis = s.synopsis()->stats();
    c.usage = Usage::Now();
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void SetPerLayer(const TrafficResult& t,
                 const Counters& c0, const Counters& c1, double ops,
                 Report* report) {
  const auto all = [](const ReadRecord&, int) { return true; };
  const auto kind = [](const ReadRecord& r, int k) { return r.kind == k; };
  const auto tier = [](const ReadRecord& r, int k) { return r.tier == k; };
  const auto overlap = [](const ReadRecord& r, int) { return r.overlapped_commit; };
  const double reads = static_cast<double>(t.reads.size());
  const double commits = static_cast<double>(t.commits.size());

  report->SetLatency("serve.query", "_us", Latencies(t.reads, all, 0));
  for (int k = 0; k < 3; ++k) {
    report->Set(std::string("serve.op_p50_us.") + kReadKindNames[k],
                Median(Latencies(t.reads, kind, k)));
  }
  int64_t known = 0;
  for (const ReadRecord& r : t.reads) known += r.tier != kNoTier;
  for (int k = 0; k < 4; ++k) {
    const std::vector<double> v = Latencies(t.reads, tier, k);
    report->Set(std::string("serve.tier_frac.") + kTierNames[k],
                Ratio(static_cast<double>(v.size()), static_cast<double>(known)));
    report->Set(std::string("serve.tier_p50_us.") + kTierNames[k], Median(v));
  }
  report->SetLatency("serve.overlap_query", "_us", Latencies(t.reads, overlap, 0));

  std::vector<double> commit_us, overhead_us, apply_us;
  double components = 0, tuples = 0, rewritten = 0, appended = 0,
         tombstoned = 0, rtree_nodes = 0, page_io = 0, with_stats = 0;
  for (const CommitRecord& r : t.commits) {
    commit_us.push_back(r.us);
    if (!r.has_stats) continue;
    const MaintenanceStats& s = r.stats;
    ++with_stats;
    apply_us.push_back(s.seconds * 1e6);
    overhead_us.push_back(r.us - s.seconds * 1e6);
    components += s.components_touched;
    tuples += s.tuples_fetched;
    rewritten += s.edb_rows_rewritten;
    appended += s.edb_rows_appended;
    tombstoned += s.edb_rows_tombstoned;
    rtree_nodes += s.rtree_nodes_accessed;
    page_io += s.io.total();
  }
  report->SetLatency("serve.commit", "_us", commit_us);
  report->Set("serve.commit_overhead_us", Median(overhead_us));
  report->Set("maint.apply_p50_us", Median(apply_us));
  report->Set("maint.components_per_commit", Ratio(components, with_stats));
  report->Set("maint.tuples_per_commit", Ratio(tuples, with_stats));
  report->Set("maint.rows_rewritten", Ratio(rewritten, with_stats));
  report->Set("maint.rows_appended", Ratio(appended, with_stats));
  report->Set("maint.rows_tombstoned", Ratio(tombstoned, with_stats));
  report->Set("maint.rtree_nodes_per_commit", Ratio(rtree_nodes, with_stats));
  report->Set("maint.page_io_per_commit", Ratio(page_io, with_stats));

  const AggregateCache::Stats cache = {
      c1.cache.hits - c0.cache.hits, c1.cache.misses - c0.cache.misses,
      c1.cache.inserted_entries - c0.cache.inserted_entries,
      c1.cache.evicted_entries - c0.cache.evicted_entries,
      c1.cache.invalidated_entries - c0.cache.invalidated_entries};
  report->Set("cache.hit_rate", Ratio(cache.hits, cache.hits + cache.misses));
  report->Set("cache.evicted_per_kread", Ratio(1000.0 * cache.evicted_entries, reads));
  report->Set("cache.invalidated_per_commit", Ratio(cache.invalidated_entries, commits));

  const double probes = c1.aggidx.probes - c0.aggidx.probes;
  report->Set("aggidx.probes_per_read", Ratio(probes, reads));
  report->Set("aggidx.nodes_per_probe", Ratio(c1.aggidx.nodes_read - c0.aggidx.nodes_read, probes));
  report->Set("aggidx.refreshes", c1.aggidx.refreshes - c0.aggidx.refreshes);
  report->Set("aggidx.cells_patched_per_commit",
              Ratio(c1.aggidx.cells_patched - c0.aggidx.cells_patched, commits));

  const double estimates = c1.synopsis.estimates - c0.synopsis.estimates;
  report->Set("synopsis.estimates_per_read", Ratio(estimates, reads));
  report->Set("synopsis.exact_frac",
              Ratio(c1.synopsis.exact_hits - c0.synopsis.exact_hits, estimates));
  report->Set("synopsis.patched_per_commit",
              Ratio(c1.synopsis.patched - c0.synopsis.patched, commits));

  // Storage counters per measured operation (a read), over everything the
  // clients did, the writer included.
  const IoStats disk = c1.disk - c0.disk;
  const PoolStats pool = c1.pool - c0.pool;
  report->Set("storage.page_reads", Ratio(disk.page_reads, ops));
  report->Set("storage.page_writes", Ratio(disk.page_writes, ops));
  report->Set("storage.prefetch_reads", Ratio(disk.prefetch_reads, ops));
  report->Set("storage.prefetch_hits", Ratio(pool.prefetch_hits, ops));
  report->Set("storage.prefetch_wasted", Ratio(pool.prefetch_wasted, ops));
  report->Set("storage.prefetch_gated", Ratio(pool.prefetch_gated, ops));
  report->Set("storage.prefetch_useful_frac", Ratio(pool.prefetch_hits, disk.prefetch_reads));
  report->Set("storage.pool_hits", Ratio(pool.hits, ops));
  report->Set("storage.pool_misses", Ratio(pool.misses, ops));
  report->Set("storage.pool_hit_rate", Ratio(pool.hits, pool.hits + pool.misses));
  report->Set("storage.pool_evictions", Ratio(pool.evictions, ops));
  report->Set("storage.dirty_writebacks", Ratio(pool.dirty_writebacks, ops));
  report->Set("storage.writeback_batches", Ratio(pool.writeback_batches, ops));
  SetProcUsage(report, c0.usage, c1.usage, ops);

  report->Set("check.verified_reads", static_cast<double>(t.verified));
  report->Set("check.generation_skips", static_cast<double>(t.generation_skips));
}

void CheckShape(const std::string& name, const ServeWorkload& w,
                const ServeState& state, const TrafficResult& t, Report* report) {
  int64_t by_tier[4] = {};
  for (const ReadRecord& r : t.reads) {
    if (r.tier != kNoTier) ++by_tier[r.tier];
  }
  if (name == "serve_scan") {
    if (by_tier[3] != static_cast<int64_t>(t.reads.size())) {
      report->ShapeError("serve_scan answered a read from a tier other than scan");
    }
    const int64_t edb_pages = state.alloc.edb.size_in_pages();
    if (edb_pages <= w.buffer_pages) {
      report->ShapeError("serve_scan EDB (" + std::to_string(edb_pages) +
                         " pages) fits in the pool");
    }
  } else {
    for (int k = 0; k < 4; ++k) {
      if (by_tier[k] == 0) {
        report->ShapeError(name + ": no read answered by tier " + kTierNames[k]);
      }
    }
    if (t.commits.empty()) report->ShapeError(name + ": the writer made no call");
  }
}

/// The per-layer part of a traced run: library counters of the measured
/// phase, standalone rebuild times, then a traced phase over `state`.
bool TracedPerLayer(const Options& options, const ServeWorkload& w,
                    const std::vector<ReadKey>& universe, ServeState* state,
                    const TrafficResult& t, const Counters& c0, const Counters& c1,
                    const std::vector<double>& op_ms, Report* report) {
  report->SetLatency("op", "_ms", op_ms);
  SetPerLayer(t, c0, c1, static_cast<double>(op_ms.size()), report);

  // Standalone rebuild times of the derived structures, at a quiescent
  // point (the service builds them while it is constructed).
  QueryService& service = *state->service;
  if (service.agg_index() != nullptr) {
    const Clock::time_point t0 = Clock::now();
    if (!service.agg_index()->Build().ok()) report->Fail("aggidx rebuild failed");
    report->Set("aggidx.build_s", SecondsSince(t0));
  }
  if (service.synopsis() != nullptr) {
    const Clock::time_point t0 = Clock::now();
    if (!service.synopsis()->Build().ok()) report->Fail("synopsis rebuild failed");
    report->Set("synopsis.build_s", SecondsSince(t0));
  }

  // Traced phase: same traffic, capped so the span buffer does not fill.
  TrafficResult traced;
  {
    ScopedObservability obs("", options.trace_path);
    traced = RunTraffic(state, w, universe, options.seed + 1, options.seconds / 2,
                        50'000, report);
    report->Set("trace.dropped_events", static_cast<double>(obs.trace()->dropped_events()));
    const Status st = obs.Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
      return false;
    }
  }
  std::vector<double> traced_ms;
  for (const ReadRecord& r : traced.reads) traced_ms.push_back(r.us * 1e-3);
  report->Set("trace.op_p50_ms", Median(traced_ms));
  report->Set("trace.overhead_frac", Median(traced_ms) / Median(op_ms) - 1);
  return true;
}

}  // namespace

int RunServeWorkload(const Options& options, Report* report) {
  ServeWorkload w;
  if (!MakeWorkload(options.workload, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  Result<StarSchema> schema = MakeAutomotiveSchema();
  if (!schema.ok()) return 1;
  const std::vector<ReadKey> universe = MakeUniverse(*schema, w, options.seed);

  // Set-up is sampled five times: twice before the measured phase (the
  // second set-up is the one measured) and three times after it, so the
  // median spans the run instead of its first seconds, when host speed may
  // differ.
  std::vector<SetupTimes> setups;
  ServeState state;
  const auto setup = [&] {
    state.Reset();
    SetupTimes times;
    if (!Setup(options, *schema, w, universe, &state, &times, report)) return false;
    setups.push_back(times);
    return true;
  };
  if (!setup() || !setup()) return 1;

  const Counters c0 = Counters::Read(&state);
  TrafficResult t = RunTraffic(&state, w, universe, options.seed, options.seconds,
                               INT64_MAX, report);
  const Counters c1 = Counters::Read(&state);
  QuiescentProbes(state.service.get(), universe, report);
  CheckShape(options.workload, w, state, t, report);

  std::vector<double> op_ms;
  for (const ReadRecord& r : t.reads) op_ms.push_back(r.us * 1e-3);
  report->Set("op_p50_ms", Median(op_ms));
  report->Set("ops_per_s", static_cast<double>(op_ms.size()) / t.seconds);
  if (options.trace &&
      !TracedPerLayer(options, w, universe, &state, t, c0, c1, op_ms, report)) {
    return 1;
  }

  for (int i = 0; i < 3; ++i) {
    if (!setup()) return 1;
  }
  state.Reset();
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  report->Set("setup_s", median_of(&SetupTimes::total_s));
  if (options.trace) {
    report->Set("datagen.s", median_of(&SetupTimes::datagen_s));
    report->Set(w.maintained ? "maint.build_s" : "alloc.build_s",
                median_of(&SetupTimes::build_s));
    report->Set("serve.init_s", median_of(&SetupTimes::init_s));
    report->Set("serve.warmup_s", median_of(&SetupTimes::warmup_s));
  }
  return 0;
}

}  // namespace perfbench
