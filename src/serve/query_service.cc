#include "serve/query_service.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "edb/columnar.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iolap {

namespace {

int ClampShards(int requested) {
  return std::max(1, std::min(requested, kMaxShards));
}

const FactRecord& FactOf(const FactRecord& fact) { return fact; }
const FactRecord& FactOf(const FactUpdate& update) { return update.before; }

/// The region rects of a mutation batch's facts, which MutateLocked maps
/// to the shards it locks.
template <typename Mutation>
std::vector<Rect> BatchRects(const StarSchema& schema,
                             const std::vector<Mutation>& batch) {
  std::vector<Rect> rects;
  rects.reserve(batch.size());
  for (const Mutation& m : batch) {
    rects.push_back(FactRegionToRect(schema, FactOf(m)));
  }
  return rects;
}

}  // namespace

QueryService::QueryService(MaintenanceManager* manager,
                           const ServeOptions& options)
    : QueryService(&manager->env(), &manager->schema(), &manager->edb(),
                   manager, options) {}

QueryService::QueryService(StorageEnv* env, const StarSchema* schema,
                           const TypedFile<EdbRecord>* edb,
                           const ServeOptions& options)
    : QueryService(env, schema, edb, /*manager=*/nullptr, options) {}

QueryService::QueryService(StorageEnv* env, const StarSchema* schema,
                           const TypedFile<EdbRecord>* edb,
                           MaintenanceManager* manager,
                           const ServeOptions& options)
    : env_(env),
      schema_(schema),
      edb_(edb),
      manager_(manager),
      options_(options),
      queries_counter_(GlobalCounter("serve.queries")),
      mutations_counter_(GlobalCounter("serve.mutations")),
      partitions_counter_(GlobalCounter("serve.scan_partitions")),
      index_answers_counter_(GlobalCounter("serve.index_answers")),
      index_fallbacks_counter_(GlobalCounter("serve.index_fallbacks")),
      generation_gauge_(GlobalGauge("serve.generation")),
      shards_gauge_(GlobalGauge("serve.shards")),
      query_us_histogram_(GlobalHistogram("serve.query_us")),
      scan_rows_histogram_(GlobalHistogram("serve.scan_rows")),
      partitions_histogram_(GlobalHistogram("serve.partitions_per_query")) {
  options_.num_shards = ClampShards(options_.num_shards);
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.cache_slots > 0) {
    cache_ = std::make_unique<AggregateCache>(options_.cache_slots);
  }
  if (options_.agg_index) {
    agg_index_ = std::make_unique<AggIndex>(env_, schema_, edb_);
  }
  // The per-node store answers the index's node-aligned exact probes as
  // well as bounded queries. In read-only mode the EDB is static, so the
  // build-time store stays exact forever.
  if (options_.agg_index || options_.synopsis) {
    synopsis_ = std::make_unique<SynopsisStore>(env_, schema_, edb_);
  }
  if (manager_ != nullptr) {
    if (agg_index_ != nullptr) change_fanout_.Add(agg_index_.get());
    if (synopsis_ != nullptr) change_fanout_.Add(synopsis_.get());
    if (!change_fanout_.empty()) {
      manager_->set_change_listener(&change_fanout_);
    }
  }
  for (int t = 0; t < 4; ++t) {
    tier_counters_[t] = GlobalCounter(
        std::string("serve.answer_tier.") +
        AnswerTierName(static_cast<AnswerTier>(t)));
  }
  GroupByOptions gopts;
  gopts.chunk_rows = options_.min_partition_rows;
  groupby_ = std::make_unique<GroupByEngine>(env_, schema_, edb_, pool_.get(),
                                             gopts);
  // Front-load shard construction (one EDB scan) and the partial stores'
  // builds; on failure the first query retries and surfaces the error.
  const Status init = EnsureShardsReady();
  (void)init;
}

QueryService::~QueryService() {
  // The manager may outlive this service; never leave it pointing at the
  // fanout (and through it the index / synopsis) we own.
  if (manager_ != nullptr && !change_fanout_.empty()) {
    manager_->set_change_listener(nullptr);
  }
  if (columnar_ != nullptr) {
    const Status evicted = env_->pool().EvictFile(columnar_->file_id());
    (void)evicted;
    const Status deleted = env_->disk().DeleteFile(columnar_->file_id());
    (void)deleted;
  }
}

// ---------------------------------------------------------------------------
// Shard construction and range maintenance.

void QueryService::MakeShards(int num_shards) {
  shards_.clear();
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    const std::string prefix = "serve.shard." + std::to_string(s);
    shard->queries = GlobalCounter(prefix + ".queries");
    shard->mutations = GlobalCounter(prefix + ".mutations");
    shard->gen_gauge = GlobalGauge(prefix + ".generation");
    shards_.push_back(std::move(shard));
  }
  if (shards_gauge_ != nullptr) shards_gauge_->Set(num_shards);
}

Status QueryService::EnsureShardsReady() {
  if (shards_ready_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> init_lock(init_mu_);
  if (shards_ready_.load(std::memory_order_acquire)) return Status::Ok();
  IOLAP_RETURN_IF_ERROR(InitShardsLocked());
  // The mirror and the partial stores below each scan the whole EDB, so
  // writers stay out (a re-init can follow a failed batch while other
  // writers wait on mutation_mu_).
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  // The scan format rule: a static EDB that outgrows the pool is converted
  // once into the columnar mirror, whose projected scans read far fewer
  // pages; a pool that holds the EDB serves row pages from memory, where
  // decoding only costs. A maintained EDB changes under the mirror, so it
  // always scans rows. Failure is not fatal: queries scan the row file.
  if (manager_ == nullptr && edb_->size_in_pages() > env_->buffer_pages()) {
    Result<ColumnarEdb> mirror = WriteColumnarEdb(*env_, *schema_, *edb_);
    if (mirror.ok()) {
      columnar_ = std::make_unique<const ColumnarEdb>(std::move(*mirror));
    }
  }
  // The partial stores never build on the query path (a query holds only
  // its shards' locks, so it must not scan the whole EDB): they build
  // here, while everything is quiescent. A build failure just leaves
  // queries falling back to the lower tiers until a commit rebuilds.
  if (agg_index_ != nullptr) {
    const Status built = agg_index_->RebuildIfStale();
    (void)built;
  }
  if (synopsis_ != nullptr && !synopsis_->ready()) {
    synopsis_->SetShardBounds(SynopsisBounds());
    const Status built = synopsis_->RebuildIfStale();
    (void)built;
  }
  shards_ready_.store(true, std::memory_order_release);
  return Status::Ok();
}

std::vector<int32_t> QueryService::SynopsisBounds() const {
  if (shards_.size() > 1) {
    std::vector<int32_t> begins;
    begins.reserve(shards_.size() + 1);
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      begins.push_back(shard_map_.shard_begin(s));
    }
    begins.push_back(
        shard_map_.shard_end(static_cast<int>(shards_.size()) - 1));
    return begins;
  }
  return {0, schema_->dim(0).num_leaves()};
}

Status QueryService::InitShardsLocked() {
  // Single-shard mode needs no geometry and no scan: one lock, the whole
  // EDB as the implicit range — the classic snapshot-lock behavior.
  if (options_.num_shards <= 1) {
    if (shards_.empty()) MakeShards(1);
    return Status::Ok();
  }
  // A re-init (after a failed range rebuild) must exclude mutators and
  // in-flight queries: lock order init_mu_ -> mutation_mu_ -> all shards.
  // The *first* init needs no locks — nothing touches shard state before
  // shards_ready_, and every entry point funnels through init_mu_.
  std::unique_lock<std::mutex> mutation_lock(mutation_mu_, std::defer_lock);
  std::vector<std::unique_lock<std::shared_mutex>> shard_locks;
  if (!shards_.empty()) {
    mutation_lock.lock();
    shard_locks.reserve(shards_.size());
    for (auto& s : shards_) shard_locks.emplace_back(s->mu);
  }
  if (shards_.empty()) {
    // One EDB pass for the per-leaf row histogram the packer balances
    // against, then build the (immutable) map from it and the alive
    // component boxes.
    std::vector<int64_t> leaf_rows(schema_->dim(0).num_leaves(), 0);
    auto cursor = edb_->Scan(env_->pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
      if (rec.IsTombstone()) continue;
      ++leaf_rows[rec.leaf[0]];
    }
    std::vector<Rect> boxes;
    if (manager_ != nullptr) {
      for (const auto& comp : manager_->directory()) {
        if (comp.alive) boxes.push_back(comp.bbox);
      }
    }
    shard_map_ =
        ShardMap::Build(*schema_, options_.num_shards, boxes, leaf_rows);
    MakeShards(shard_map_.num_shards());
  }
  if (shards_.size() == 1) return Status::Ok();  // atoms forced one shard
  for (auto& s : shards_) s->ranges.clear();
  int prev_shard = 0;
  return AppendRangesFromScan(0, edb_->size(), &prev_shard);
}

Status QueryService::AppendRangesFromScan(int64_t begin, int64_t end,
                                          int* prev_shard) {
  const auto push = [this](int shard, int64_t b, int64_t e) {
    std::vector<RowRange>& rs = shards_[shard]->ranges;
    if (!rs.empty() && rs.back().end == b) {
      rs.back().end = e;  // extend the adjacent run
      return;
    }
    rs.push_back(RowRange{b, e});
  };
  auto cursor = edb_->Scan(env_->pool(), begin, end);
  EdbRecord rec;
  int run_shard = *prev_shard;
  int64_t run_begin = begin;
  for (int64_t row = begin; row < end; ++row) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    // Tombstones carry no leaf; they stay with the run they interrupt so
    // ranges remain maximal (any owner is correct — they match nothing).
    const int shard =
        rec.IsTombstone() ? run_shard : shard_map_.ShardOfLeaf(rec.leaf[0]);
    if (shard != run_shard) {
      if (row > run_begin) push(run_shard, run_begin, row);
      run_shard = shard;
      run_begin = row;
    }
  }
  if (end > run_begin) push(run_shard, run_begin, end);
  *prev_shard = run_shard;
  return Status::Ok();
}

Status QueryService::RebuildTouchedLocked(const std::vector<int>& touched,
                                          int64_t old_rows) {
  // A batch only moves rows *within* the components it re-allocated, and
  // every such component's bbox maps into `touched` — so rescanning the
  // touched shards' old ranges plus the appended tail re-derives every
  // range that could have changed, and rows found there can only map back
  // into touched shards.
  std::vector<RowRange> spans;
  for (int s : touched) {
    std::vector<RowRange>& rs = shards_[s]->ranges;
    spans.insert(spans.end(), rs.begin(), rs.end());
    rs.clear();
  }
  const int64_t rows = edb_->size();
  if (rows > old_rows) spans.push_back(RowRange{old_rows, rows});
  std::sort(spans.begin(), spans.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  int prev_shard = touched.empty() ? 0 : touched.front();
  int64_t next = 0;  // old ranges are disjoint; just clamp and skip empties
  for (const RowRange& span : spans) {
    const int64_t b = std::max(span.begin, next);
    const int64_t e = std::min(span.end, rows);
    if (e <= b) continue;
    IOLAP_RETURN_IF_ERROR(AppendRangesFromScan(b, e, &prev_shard));
    next = e;
  }
  return Status::Ok();
}

std::vector<int> QueryService::TouchedShards(
    const std::vector<Rect>& rects) const {
  const int n = static_cast<int>(shards_.size());
  std::vector<int> out;
  if (n <= 1 || rects.empty()) {
    // Single shard, or a batch with no geometry: lock everything.
    out.reserve(n);
    for (int s = 0; s < n; ++s) out.push_back(s);
    return out;
  }
  std::vector<bool> hit(n, false);
  const auto mark = [&](const Rect& r) {
    const auto [lo, hi] = shard_map_.ShardRangeOfRect(r);
    for (int s = lo; s <= hi; ++s) hit[s] = true;
  };
  for (const Rect& r : rects) mark(r);
  if (manager_ != nullptr) {
    // Components the batch overlaps are re-allocated whole; their rows can
    // move anywhere inside the component bbox, which may have grown past
    // the map's build-time geometry (post-build merges) — so mark every
    // shard the *current* bbox intersects.
    for (const auto& comp : manager_->directory()) {
      if (!comp.alive) continue;
      for (const Rect& r : rects) {
        if (RectsIntersect(comp.bbox, r, schema_->num_dims())) {
          mark(comp.bbox);
          break;
        }
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    if (hit[s]) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Query paths.

QueryService::LockedShards QueryService::AcquireShared(
    const Rect& rect, ShardSnapshot* snapshot) {
  LockedShards ls;
  int lo = 0;
  int hi = 0;
  if (shards_.size() > 1) {
    std::tie(lo, hi) = shard_map_.ShardRangeOfRect(rect);
  }
  ls.first = lo;
  ls.last = hi;
  ls.locks.reserve(hi - lo + 1);
  for (int s = lo; s <= hi; ++s) ls.locks.emplace_back(shards_[s]->mu);
  ls.global_gen = generation_.load(std::memory_order_acquire);
  if (snapshot != nullptr) {
    snapshot->first_shard = lo;
    snapshot->generations.clear();
  }
  for (int s = lo; s <= hi; ++s) {
    if (snapshot != nullptr) {
      snapshot->generations.push_back(
          shards_[s]->gen.load(std::memory_order_acquire));
    }
    if (shards_[s]->queries != nullptr) shards_[s]->queries->Add(1);
  }
  return ls;
}

std::vector<RowRange> QueryService::CollectRanges(
    const LockedShards& ls) const {
  std::vector<RowRange> out;
  if (shards_.size() <= 1) {
    const int64_t rows = edb_->size();
    if (rows > 0) out.push_back(RowRange{0, rows});
    return out;
  }
  for (int s = ls.first; s <= ls.last; ++s) {
    const std::vector<RowRange>& rs = shards_[s]->ranges;
    out.insert(out.end(), rs.begin(), rs.end());
  }
  std::sort(out.begin(), out.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  // Coalesce runs adjacent across shards so the chunker sees maximal spans.
  std::vector<RowRange> merged;
  merged.reserve(out.size());
  for (const RowRange& r : out) {
    if (!merged.empty() && merged.back().end == r.begin) {
      merged.back().end = r.end;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

Result<std::vector<AggregateResult>> QueryService::Walk(
    const QueryRegion& region, int dim, int level, AggregateFunc func,
    const AnswerSpec& spec, bool scan_only, AnswerStats* answer_stats,
    int64_t* generation, ShardSnapshot* shards) {
  TraceSpan span("serve.query");
  Stopwatch timer;
  if (queries_counter_ != nullptr) queries_counter_->Add(1);
  IOLAP_RETURN_IF_ERROR(EnsureShardsReady());
  const Rect rect = RegionToRect(*schema_, region);
  LockedShards ls = AcquireShared(rect, shards);
  if (generation != nullptr) *generation = ls.global_gen;

  // A bounded spec with no error budget IS the exact contract; collapsing
  // it here makes bounded(0) trivially memcmp-equal to exact mode.
  const bool bounded =
      spec.mode == AnswerMode::kBounded && spec.epsilon > 0;
  const bool cached = cache_ != nullptr && !scan_only;
  AnswerStats answer;  // a scan's: exact, bound 0, no cache hit
  std::vector<AggregateResult> groups;
  bool answered = false;

  // Cache tier. An exact entry serves both contracts (a bound of zero fits
  // any epsilon); a bounded entry serves only bounded queries whose budget
  // its recorded bound fits — never an exact query.
  AggregateCacheKey exact_key;
  AggregateCacheKey bounded_key;
  if (cached) {
    exact_key = AggregateCache::MakeKey(*schema_, region, dim, level, func,
                                        AnswerMode::kExact);
    if (bounded) {
      bounded_key = AggregateCache::MakeKey(*schema_, region, dim, level,
                                            func, AnswerMode::kBounded);
    }
    double cached_bound = 0;
    answered = cache_->Lookup(exact_key, &groups) ||
               (bounded &&
                cache_->Lookup(bounded_key, &groups, &cached_bound) &&
                cached_bound <= spec.epsilon);
    if (answered) {
      answer = {.tier = AnswerTier::kCache,
                .bound = cached_bound,
                .cache_hit = true,
                .exact = cached_bound == 0};
    }
  }

  // Index tier: exact answers from stored partials — the per-node store
  // when every group is exact there, else the cell tree. Any error falls
  // through; the lower tiers are always correct.
  if (!answered && agg_index_ != nullptr && !scan_only) {
    Result<std::vector<AggregateResult>> stored =
        synopsis_->ExactRollUp(region, dim, level, func);
    if (stored.ok()) {
      groups = std::move(*stored);
      answer.tier = AnswerTier::kSynopsis;
      answered = true;
    } else {
      Result<std::vector<AggregateResult>> indexed =
          agg_index_->RollUp(region, dim, level, func);
      answered = indexed.ok();
      Counter* counter =
          answered ? index_answers_counter_ : index_fallbacks_counter_;
      if (counter != nullptr) counter->Add(1);
      if (answered) {
        groups = std::move(*indexed);
        answer.tier = AnswerTier::kIndex;
      }
    }
  }

  // Approximate tier (bounded point queries only): accept the store's
  // estimate iff its proven bound fits the query's epsilon. Cached under
  // the *bounded* key even when the bound is 0, so with agg_index off
  // exact-key entries stay pure scan products.
  bool estimated = false;
  if (!answered && bounded && dim < 0 && options_.synopsis && !scan_only) {
    Result<BoundedAggregate> est =
        synopsis_->EstimateAggregate(region, func, spec.delta);
    estimated = answered = est.ok() && est->bound <= spec.epsilon;
    if (answered) {
      groups = {est->result};
      answer = {.tier = AnswerTier::kSynopsis,
                .bound = est->bound,
                .exact = est->exact};
    }
  }

  // Scan tier: the oracle.
  if (!answered) {
    GroupByStats gstats;
    IOLAP_ASSIGN_OR_RETURN(groups, groupby_->RollUp(CollectRanges(ls), region,
                                                    dim, level, func, &gstats,
                                                    columnar_.get()));
    if (partitions_counter_ != nullptr) {
      partitions_counter_->Add(gstats.chunks);
    }
    if (scan_rows_histogram_ != nullptr) {
      scan_rows_histogram_->Record(gstats.rows_scanned);
    }
    if (partitions_histogram_ != nullptr) {
      partitions_histogram_->Record(gstats.chunks);
    }
  }

  if (cached && !answer.cache_hit) {
    cache_->Insert(estimated ? bounded_key : exact_key, rect, groups,
                   ShardMap::MaskOfRange(ls.first, ls.last), answer.bound);
  }
  if (scan_only) return groups;
  span.AddArg("tier", static_cast<int64_t>(answer.tier));
  const int t = static_cast<int>(answer.tier);
  if (tier_counters_[t] != nullptr) tier_counters_[t]->Add(1);
  if (query_us_histogram_ != nullptr) {
    query_us_histogram_->Record(
        static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  if (answer_stats != nullptr) *answer_stats = answer;
  return groups;
}

Result<AggregateResult> QueryService::Aggregate(const QueryRegion& region,
                                                AggregateFunc func,
                                                const AnswerSpec& spec,
                                                AnswerStats* answer_stats,
                                                int64_t* generation,
                                                ShardSnapshot* shards) {
  IOLAP_ASSIGN_OR_RETURN(std::vector<AggregateResult> groups,
                         Walk(region, /*dim=*/-1, /*level=*/0, func, spec,
                              /*scan_only=*/false, answer_stats, generation,
                              shards));
  return groups[0];
}

Result<std::vector<AggregateResult>> QueryService::RollUp(
    const QueryRegion& region, int dim, int level, AggregateFunc func,
    int64_t* generation, bool* cache_hit, ShardSnapshot* shards) {
  // Before the walk, which reads a negative dim as a point aggregate.
  IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  AnswerStats answer;
  IOLAP_ASSIGN_OR_RETURN(std::vector<AggregateResult> groups,
                         Walk(region, dim, level, func, AnswerSpec::Exact(),
                              /*scan_only=*/false, &answer, generation,
                              shards));
  if (cache_hit != nullptr) *cache_hit = answer.cache_hit;
  return groups;
}

Result<std::vector<EdbRecord>> QueryService::CompletionsOf(
    FactId fact_id, int64_t* generation) {
  TraceSpan span("serve.query");
  if (queries_counter_ != nullptr) queries_counter_->Add(1);
  IOLAP_RETURN_IF_ERROR(EnsureShardsReady());
  // A fact's completions can live anywhere: full-EDB scan, all shards.
  const Rect all = RegionToRect(*schema_, QueryRegion::All());
  LockedShards ls = AcquireShared(all, nullptr);
  if (generation != nullptr) *generation = ls.global_gen;
  return QueryEngine(env_, schema_, edb_).CompletionsOf(fact_id);
}

Result<AggregateResult> QueryService::UncachedAggregate(
    const QueryRegion& region, AggregateFunc func, int64_t* generation,
    ShardSnapshot* shards) {
  IOLAP_ASSIGN_OR_RETURN(std::vector<AggregateResult> groups,
                         Walk(region, /*dim=*/-1, /*level=*/0, func,
                              AnswerSpec::Exact(), /*scan_only=*/true,
                              nullptr, generation, shards));
  return groups[0];
}

Result<std::vector<AggregateResult>> QueryService::UncachedRollUp(
    const QueryRegion& region, int dim, int level, AggregateFunc func,
    int64_t* generation, ShardSnapshot* shards) {
  IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  return Walk(region, dim, level, func, AnswerSpec::Exact(),
              /*scan_only=*/true, nullptr, generation, shards);
}

// ---------------------------------------------------------------------------
// Mutation paths.

Status QueryService::MutateLocked(
    const std::vector<Rect>& rects, MaintenanceStats* stats,
    const std::function<Status(MaintenanceStats*)>& apply) {
  if (manager_ == nullptr) {
    return Status::FailedPrecondition(
        "QueryService is read-only (no MaintenanceManager)");
  }
  IOLAP_RETURN_IF_ERROR(EnsureShardsReady());
  TraceSpan span("serve.commit");
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  const std::vector<int> touched = TouchedShards(rects);
  std::vector<std::unique_lock<std::shared_mutex>> shard_locks;
  shard_locks.reserve(touched.size());
  for (int s : touched) shard_locks.emplace_back(shards_[s]->mu);
  span.AddArg("shards_locked", static_cast<int64_t>(touched.size()));

  const int64_t old_rows = edb_->size();
  MaintenanceStats local;
  MaintenanceStats* s = stats != nullptr ? stats : &local;
  // Stats may be reused across batches; only this batch's boxes matter.
  const size_t box_start = s->touched_boxes.size();
  Status status = apply(s);

  if (shards_.size() > 1) {
    // Re-derive the touched shards' row ranges even on failure — a failed
    // batch may have partially applied inside them.
    const Status ranges = RebuildTouchedLocked(touched, old_rows);
    if (!ranges.ok()) {
      // Ranges are unreliable now; force a full re-init (which excludes
      // every query and mutator) on the next entry.
      shards_ready_.store(false, std::memory_order_release);
      if (status.ok()) status = ranges;
    }
  }

  // Bump even on failure: a failed batch may have partially applied, and a
  // stale generation must never look current.
  const int64_t gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (generation_gauge_ != nullptr) generation_gauge_->Set(gen);
  if (mutations_counter_ != nullptr) mutations_counter_->Add(1);
  for (int si : touched) {
    Shard& shard = *shards_[si];
    const int64_t sg = shard.gen.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (shard.gen_gauge != nullptr) shard.gen_gauge->Set(sg);
    if (shard.mutations != nullptr) shard.mutations->Add(1);
  }

  if (cache_ != nullptr) {
    int64_t dropped = 0;
    if (!status.ok()) {
      // The batch can only have written inside the shards it locked: drop
      // exactly the entries that read those shards, keep the rest.
      uint64_t mask = 0;
      for (int si : touched) mask |= uint64_t{1} << si;
      dropped = cache_->InvalidateShards(mask);
    } else {
      dropped = cache_->Invalidate(s->touched_boxes.data() + box_start,
                                   s->touched_boxes.size() - box_start,
                                   schema_->num_dims());
    }
    span.AddArg("invalidated_entries", dropped);
  }
  // Both partial stores settle the batch the same way. A successful batch
  // folds its buffered row deltas in; a failed one may have applied any
  // prefix of its row changes, so the deltas no longer describe the EDB
  // and the store goes stale. A stale store is rebuilt here, while
  // mutation_mu_ still excludes every other writer; until then its
  // queries refuse, and a failed rebuild just leaves readers falling back
  // to the scan tier.
  const auto settle = [&status](auto* store) {
    if (store == nullptr) return;
    if (!status.ok() || !store->Commit().ok()) store->Invalidate();
    const Status rebuilt = store->RebuildIfStale();
    (void)rebuilt;
  };
  settle(agg_index_.get());
  settle(synopsis_.get());
  return status;
}

Status QueryService::ApplyUpdates(const std::vector<FactUpdate>& updates,
                                  MaintenanceStats* stats) {
  return MutateLocked(BatchRects(*schema_, updates), stats,
                      [this, &updates](MaintenanceStats* s) {
                        return manager_->ApplyUpdates(updates, s);
                      });
}

Status QueryService::InsertFacts(const std::vector<FactRecord>& inserts,
                                 MaintenanceStats* stats) {
  return MutateLocked(BatchRects(*schema_, inserts), stats,
                      [this, &inserts](MaintenanceStats* s) {
                        return manager_->InsertFacts(inserts, s);
                      });
}

Status QueryService::DeleteFacts(const std::vector<FactRecord>& deletes,
                                 MaintenanceStats* stats) {
  return MutateLocked(BatchRects(*schema_, deletes), stats,
                      [this, &deletes](MaintenanceStats* s) {
                        return manager_->DeleteFacts(deletes, s);
                      });
}

Result<int64_t> QueryService::Compact() {
  if (manager_ == nullptr) {
    return Status::FailedPrecondition(
        "QueryService is read-only (no MaintenanceManager)");
  }
  IOLAP_RETURN_IF_ERROR(EnsureShardsReady());
  TraceSpan span("serve.commit");
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  // Compaction rewrites every row position: every shard is locked.
  std::vector<std::unique_lock<std::shared_mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) shard_locks.emplace_back(shard->mu);
  Result<int64_t> removed = manager_->CompactEdb();
  if (!removed.ok()) {
    // The rewrite may have partially applied; drop everything and force a
    // new generation so nothing stale survives.
    if (cache_ != nullptr) cache_->Clear();
    if (agg_index_ != nullptr) agg_index_->Invalidate();
    if (synopsis_ != nullptr) synopsis_->Invalidate();
    const int64_t gen =
        generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (generation_gauge_ != nullptr) generation_gauge_->Set(gen);
    for (auto& shard : shards_) {
      const int64_t sg = shard->gen.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (shard->gen_gauge != nullptr) shard->gen_gauge->Set(sg);
    }
  }
  if (shards_.size() > 1) {
    // Row positions changed wholesale (success or partial failure):
    // rebuild every shard's ranges from one scan.
    for (auto& shard : shards_) shard->ranges.clear();
    int prev_shard = 0;
    const Status ranges = AppendRangesFromScan(0, edb_->size(), &prev_shard);
    if (!ranges.ok()) {
      shards_ready_.store(false, std::memory_order_release);
      if (removed.ok()) return ranges;
    }
  }
  // On success the logical EDB content is unchanged (only tombstones were
  // squeezed out), so cached results (and the index, which is keyed by
  // cell, not row position) stay valid and the generation holds.
  return removed;
}

}  // namespace iolap
