#ifndef IOLAP_SERVE_QUERY_SERVICE_H_
#define IOLAP_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "aggidx/agg_index.h"
#include "common/result.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "exec/thread_pool.h"
#include "serve/aggregate_cache.h"
#include "serve/answer.h"
#include "serve/groupby.h"
#include "serve/shard_map.h"
#include "storage/storage_env.h"
#include "synopsis/synopsis.h"

namespace iolap {

class ColumnarEdb;

struct ServeOptions {
  /// Worker threads for parallel group-by scans. 1 = scan inline on the
  /// calling thread (no pool).
  int num_threads = 1;
  /// Unit of the group-by engine's fixed chunk grid (snapped up to whole
  /// EDB pages): scans split into grid chunks of this many rows, never
  /// smaller — partitioning a tiny EDB buys nothing and costs task
  /// dispatch. Part of the determinism contract: answers are byte-stable
  /// only across configurations sharing this value.
  int64_t min_partition_rows = 4096;
  /// Aggregate-cache capacity in result slots (a point aggregate costs 1
  /// slot, a rollup one slot per group). 0 disables caching entirely.
  int64_t cache_slots = 4096;
  /// Answer exact cache misses from stored partials instead of scanning the
  /// EDB: first the per-node store (src/synopsis) when its answer is exact,
  /// then the disk-resident cell tree (src/aggidx). Exact answers are then
  /// within 1e-9 of a scan rather than memcmp-equal. In maintained mode
  /// both are kept incrementally consistent from the change stream.
  bool agg_index = false;
  /// Shards to partition the EDB into (clamped to [1, kMaxShards] and to
  /// what the component layout allows — see ShardMap). 1 keeps the classic
  /// single snapshot lock. More shards let maintenance on one shard run
  /// concurrently with queries (and maintenance) on others.
  int num_shards = 1;
  /// Maintain the in-memory per-shard moment store (src/synopsis) and let
  /// bounded-mode queries (AnswerSpec::Bounded) be answered from it with a
  /// probabilistic error bound instead of scanning. Exact-mode queries are
  /// unaffected unless agg_index is on. Kept incrementally consistent from
  /// the same change stream as the aggregate index.
  bool synopsis = false;
};

/// Per-shard generations pinned by one query: shard `first_shard + i` was
/// at `generations[i]` for the whole query. The multi-shard analogue of the
/// global generation out-param.
struct ShardSnapshot {
  int first_shard = 0;
  std::vector<int64_t> generations;
};

/// Concurrent query-serving front end over the Extended Database.
///
/// One query shape: a rollup of one dimension at one level over a region,
/// where a point aggregate is the rollup with a single group. Every read
/// runs one tier walk; a tier answers all the groups or falls through:
///  1. the AggregateCache (no I/O): the exact key, then — bounded queries
///     only — the bounded key, whose recorded error bound must fit the
///     query's epsilon;
///  2. with `agg_index` on, the per-node moment store when every group is
///     exact there (in memory), else the aggregate index's cell tree (a few
///     node pages instead of an EDB scan);
///  3. bounded point queries only: the store's bounded estimate, accepted
///     when its error bound fits the query's epsilon (serve/answer.h,
///     DESIGN.md §15);
///  4. the parallel group-by scan (serve/groupby.h).
/// What a tier below the cache answers is cached once. The scan stays the
/// oracle: Uncached* enter the same walk with every tier but the scan
/// skipped, so they never consult the cache, the index or the store.
///
/// Scan format: a read-only service whose EDB outgrows the buffer pool
/// (edb.size_in_pages() > pool capacity) converts it once, at startup,
/// into a compressed columnar mirror (edb/columnar.h) and scans that
/// instead, decoding only the columns each query projects. Where the pool
/// holds the EDB, or the EDB mutates (maintained mode), scans read the
/// row-major file. Answers are byte-identical on either path.
///
/// Concurrency model (the sharded snapshot contract):
///  * The leaf space is statically partitioned into shards along
///    component-aligned dimension-0 leaf ranges (serve/shard_map.h); each
///    shard has its own shared_mutex, atomic generation, and list of EDB
///    row ranges. A query shared-locks exactly the shards its region
///    intersects, in ascending order, and *pins their generations*; a
///    maintenance batch exclusively locks the shards it can touch (its
///    fact rects plus every alive component they overlap — conservative,
///    computed before applying), also in ascending order. A query
///    therefore observes all of a batch or none of it on every shard it
///    reads, and maintenance on one shard never blocks queries on others.
///  * Each committed batch bumps the global generation and the touched
///    shards' generations, and selectively invalidates cached results
///    whose region intersects the batch's touched component bounding
///    boxes (MaintenanceStats::touched_boxes). A *failed* batch drops only
///    the cache entries that read the batch's shards (the batch cannot
///    have written a byte outside them) and bumps those shards anyway, so
///    no stale entry can ever be served.
///  * Scans run on the group-by engine's fixed chunk grid; results are
///    byte-identical across thread counts AND shard counts (see
///    GroupByEngine), and 1e-9-equal to the serial QueryEngine.
///
/// With num_shards == 1 all of this degenerates to the classic single
/// snapshot lock + global generation.
///
/// Two modes:
///  * maintained — constructed over a MaintenanceManager; mutations route
///    through the service and invalidate selectively.
///  * read-only — constructed over a static EDB file; generations stay 0
///    and mutation calls fail with kFailedPrecondition.
class QueryService {
 public:
  /// Serves `manager`'s EDB; mutations go through the service.
  QueryService(MaintenanceManager* manager, const ServeOptions& options);

  /// Read-only service over a static EDB.
  QueryService(StorageEnv* env, const StarSchema* schema,
               const TypedFile<EdbRecord>* edb, const ServeOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  /// Allocation-weighted aggregate over `region` under an answer contract
  /// (exact by default): the one-group walk (see class comment). A bounded
  /// spec accepts a store answer whenever its error bound is <=
  /// spec.epsilon; with epsilon <= 0 it leaves no error budget and takes
  /// literally the exact path, so its answers are memcmp-equal to
  /// exact-mode answers. Optional outputs: the answering tier, promised
  /// bound and cache hit (`answer_stats`), the pinned global generation,
  /// and the pinned per-shard generations.
  Result<AggregateResult> Aggregate(
      const QueryRegion& region, AggregateFunc func,
      const AnswerSpec& spec = AnswerSpec::Exact(),
      AnswerStats* answer_stats = nullptr, int64_t* generation = nullptr,
      ShardSnapshot* shards = nullptr);

  /// Rollup (one aggregate per node of `dim` at `level`, restricted to
  /// `region`), indexed by node ordinal. Exact; walks the same tiers as an
  /// exact Aggregate and is counted in the same serve.answer_tier.*.
  /// kInvalidArgument unless `dim` is a schema dimension and `level` one of
  /// its levels below the root.
  Result<std::vector<AggregateResult>> RollUp(const QueryRegion& region,
                                              int dim, int level,
                                              AggregateFunc func,
                                              int64_t* generation = nullptr,
                                              bool* cache_hit = nullptr,
                                              ShardSnapshot* shards = nullptr);

  /// Provenance: a fact's completions with their allocation weights.
  /// Uncached (point lookups don't amortize), but snapshot-consistent: it
  /// scans the whole EDB, so it locks every shard.
  Result<std::vector<EdbRecord>> CompletionsOf(FactId fact_id,
                                               int64_t* generation = nullptr);

  /// Rescans the EDB: the walk with every tier but the scan skipped (no
  /// cache lookup or insert, no index or store probe, not counted in
  /// serve.answer_tier.* or serve.query_us). The verification and
  /// cold-scan baseline: a served answer must equal this at the same
  /// (shard) generations.
  Result<AggregateResult> UncachedAggregate(const QueryRegion& region,
                                            AggregateFunc func,
                                            int64_t* generation = nullptr,
                                            ShardSnapshot* shards = nullptr);
  Result<std::vector<AggregateResult>> UncachedRollUp(
      const QueryRegion& region, int dim, int level, AggregateFunc func,
      int64_t* generation = nullptr, ShardSnapshot* shards = nullptr);

  /// Mutations (maintained mode only). Applied under exclusive locks on
  /// the touched shards; on success their generations are bumped and
  /// intersecting cache entries dropped. On failure the cache drop is
  /// scoped to the touched shards (the batch may have partially applied,
  /// but only inside them) and the generations are bumped anyway, so no
  /// stale entry can ever be served.
  Status ApplyUpdates(const std::vector<FactUpdate>& updates,
                      MaintenanceStats* stats = nullptr);
  Status InsertFacts(const std::vector<FactRecord>& inserts,
                     MaintenanceStats* stats = nullptr);
  Status DeleteFacts(const std::vector<FactRecord>& deletes,
                     MaintenanceStats* stats = nullptr);

  /// Compacts tombstones out of the EDB (maintained mode only). Logical
  /// content is unchanged, so cached results stay valid and the
  /// generation does not move; row positions do change, so every shard is
  /// locked and the per-shard row ranges are rebuilt.
  Result<int64_t> Compact();

  /// Whether scans read the columnar mirror: a read-only service whose EDB
  /// outgrew the pool, once the startup conversion succeeded.
  bool columnar_active() const {
    return shards_ready_.load(std::memory_order_acquire) &&
           columnar_ != nullptr;
  }

  int64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Shard geometry and per-shard generations. Valid once construction
  /// succeeded (the shard map is built eagerly from one EDB scan).
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t shard_generation(int s) const {
    return shards_[s]->gen.load(std::memory_order_acquire);
  }
  const ShardMap& shard_map() const { return shard_map_; }
  /// Null when options.cache_slots == 0.
  AggregateCache* cache() { return cache_.get(); }
  /// Null when options.agg_index is false.
  AggIndex* agg_index() { return agg_index_.get(); }
  /// The per-node moment store; null unless options.agg_index or
  /// options.synopsis is set.
  SynopsisStore* synopsis() { return synopsis_.get(); }
  const StarSchema& schema() const { return *schema_; }

 private:
  /// The one member setup both public constructors delegate to;
  /// `manager` is null in read-only mode.
  QueryService(StorageEnv* env, const StarSchema* schema,
               const TypedFile<EdbRecord>* edb, MaintenanceManager* manager,
               const ServeOptions& options);

  struct Shard {
    mutable std::shared_mutex mu;
    std::atomic<int64_t> gen{0};
    /// Sorted, disjoint EDB row ranges owned by this shard (by dimension-0
    /// leaf; tombstones stay with the run they interrupt). Guarded by mu.
    /// Unused in single-shard mode, where the whole EDB is the range.
    std::vector<RowRange> ranges;
    // Cached per-shard metric handles (null when observability is off).
    class Counter* queries = nullptr;
    class Counter* mutations = nullptr;
    class Gauge* gen_gauge = nullptr;
  };

  /// RAII shared locks over a contiguous ascending shard range, plus the
  /// generations pinned under them.
  struct LockedShards {
    std::vector<std::shared_lock<std::shared_mutex>> locks;
    int first = 0;
    int last = 0;
    int64_t global_gen = 0;
  };

  /// Lazily (re)builds shard state; cheap no-op once ready. Every public
  /// entry point calls this first, so no query or mutation can run while
  /// shard ranges are being (re)built.
  Status EnsureShardsReady();
  Status InitShardsLocked();
  void MakeShards(int num_shards);
  /// Scans rows [begin, end) and appends shard-runs to the shards' range
  /// lists by dimension-0 leaf. Caller holds exclusive locks on every
  /// shard the scanned rows can map to. `prev_shard` carries the
  /// tombstone-attachment run state across calls.
  Status AppendRangesFromScan(int64_t begin, int64_t end, int* prev_shard);
  /// Re-derives the range lists of `touched` shards after a batch: rescans
  /// their old ranges plus the appended tail [old_rows, size).
  Status RebuildTouchedLocked(const std::vector<int>& touched,
                              int64_t old_rows);
  /// Conservative pre-computation of the shards a batch can write: the
  /// shards of its fact rects plus those of every alive component the
  /// rects overlap. Empty `rects` (or single-shard mode) locks everything.
  std::vector<int> TouchedShards(const std::vector<Rect>& rects) const;

  LockedShards AcquireShared(const Rect& rect, ShardSnapshot* snapshot);
  /// Merged row ranges of the locked shards; caller holds their locks.
  std::vector<RowRange> CollectRanges(const LockedShards& ls) const;

  Status MutateLocked(const std::vector<Rect>& rects, MaintenanceStats* stats,
                      const std::function<Status(MaintenanceStats*)>& apply);

  /// The one tier walk behind Aggregate, RollUp and the Uncached*
  /// rescans, for a rollup of `dim` at `level` or, with `dim < 0`, a point
  /// aggregate (one group); see the class comment. `scan_only` skips every
  /// tier but the scan and counts nothing in serve.answer_tier.* or
  /// serve.query_us.
  Result<std::vector<AggregateResult>> Walk(
      const QueryRegion& region, int dim, int level, AggregateFunc func,
      const AnswerSpec& spec, bool scan_only, AnswerStats* answer_stats,
      int64_t* generation, ShardSnapshot* shards);

  /// Dimension-0 shard partition for the synopsis store: the shard map's
  /// begins when sharded, the whole leaf range otherwise.
  std::vector<int32_t> SynopsisBounds() const;

  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;
  MaintenanceManager* manager_;  // null in read-only mode
  ServeOptions options_;
  std::unique_ptr<ThreadPool> pool_;       // null when num_threads <= 1
  std::unique_ptr<AggregateCache> cache_;  // null when cache_slots <= 0
  std::unique_ptr<AggIndex> agg_index_;    // null when !options.agg_index
  /// Null unless options.agg_index or options.synopsis.
  std::unique_ptr<SynopsisStore> synopsis_;
  /// Fans the maintenance change stream out to agg_index_ and synopsis_
  /// (the MaintenanceManager holds a single listener slot).
  EdbChangeFanout change_fanout_;
  std::unique_ptr<GroupByEngine> groupby_;

  /// Lock order: init_mu_ -> mutation_mu_ -> shard locks (ascending) ->
  /// cache / index internal mutexes. Queries take only shard locks (shared,
  /// ascending) and then cache/index mutexes.
  std::mutex init_mu_;
  std::atomic<bool> shards_ready_{false};
  std::mutex mutation_mu_;  // serializes mutators across shard sets

  ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> generation_{0};

  /// The columnar mirror, or null (maintained mode, the pool holds the
  /// EDB, or the conversion failed). Written once in EnsureShardsReady
  /// before the shards_ready_ release; read only after the acquire, so
  /// scans need no lock. The destructor evicts and deletes its file.
  std::unique_ptr<const ColumnarEdb> columnar_;

  // Cached global-metrics handles (null when observability is disabled).
  class Counter* queries_counter_;
  class Counter* mutations_counter_;
  class Counter* partitions_counter_;
  class Counter* index_answers_counter_;
  class Counter* index_fallbacks_counter_;
  /// serve.answer_tier.{cache,index,synopsis,scan}, indexed by AnswerTier.
  class Counter* tier_counters_[4] = {};
  class Gauge* generation_gauge_;
  class Gauge* shards_gauge_;
  class Histogram* query_us_histogram_;
  class Histogram* scan_rows_histogram_;
  class Histogram* partitions_histogram_;
};

}  // namespace iolap

#endif  // IOLAP_SERVE_QUERY_SERVICE_H_
