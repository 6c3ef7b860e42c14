#ifndef IOLAP_SERVE_GROUPBY_H_
#define IOLAP_SERVE_GROUPBY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "edb/query.h"
#include "exec/thread_pool.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

class ColumnarEdb;

/// Half-open row-index range [begin, end) of the Extended Database.
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
};

struct GroupByOptions {
  /// Unit of the fixed chunk grid (snapped up to a whole number of EDB
  /// pages). The grid lives on *global row indices* and is independent of
  /// the thread count, the shard count, and the row ranges scanned — the
  /// cornerstone of cross-configuration determinism (see class comment).
  int64_t chunk_rows = 4096;
};

struct GroupByStats {
  int64_t rows_scanned = 0;  // rows examined (incl. filtered / tombstones)
  int64_t chunks = 0;        // grid chunks actually scanned
};

/// Parallel group-by aggregation over EDB row ranges: a two-phase local
/// accumulator + ordered merge. Each grid chunk scans its rows into a
/// chunk-private accumulator (dense array for small group counts,
/// open-addressing hash above that); partials then merge into the result
/// in ascending chunk order on the calling thread, with in-flight partials
/// bounded — compute is unordered, output is ordered.
///
/// Determinism: a row matches the region filter independently of how the
/// caller's ranges cover it, and rows outside the caller's ranges never
/// match (the serve layer only queries regions whose rows lie inside the
/// ranges it locked). So for a fixed chunk grid the sequence of matching
/// rows per chunk — hence every floating-point accumulation order — is
/// identical for ANY covering range set and ANY thread count, and partials
/// with no matching rows are skipped at merge time. Answers are
/// byte-identical across thread and shard configurations.
///
/// Thread-safe for concurrent calls; all state is per-call. The scanned
/// ranges must be sorted, disjoint, and stable for the duration of the
/// call (the serve layer guarantees this by holding shard locks).
class GroupByEngine {
 public:
  GroupByEngine(StorageEnv* env, const StarSchema* schema,
                const TypedFile<EdbRecord>* edb, ThreadPool* pool,
                const GroupByOptions& options);

  /// Allocation-weighted group-by over `ranges`: one aggregate per node of
  /// `dim` at `level` restricted to `region`, indexed by node ordinal;
  /// `dim < 0` is a point aggregate, one group. With a non-null `columnar`
  /// (a mirror of the same rows as the row EDB, in the same order), chunks
  /// scan the columnar extents and decode only the columns the query
  /// projects (AggregateScanProjection) — same rows, same order, same
  /// double arithmetic, so answers stay byte-identical to the row path.
  Result<std::vector<AggregateResult>> RollUp(
      const std::vector<RowRange>& ranges, const QueryRegion& region, int dim,
      int level, AggregateFunc func, GroupByStats* stats,
      const ColumnarEdb* columnar = nullptr);

 private:
  struct Chunk {
    int64_t id = 0;                 // grid cell index (row / chunk_rows_)
    std::vector<RowRange> parts;    // ranges ∩ grid cell, ascending
  };

  std::vector<Chunk> BuildChunks(const std::vector<RowRange>& ranges) const;

  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;
  ThreadPool* pool_;  // null = run inline on the calling thread
  int64_t chunk_rows_;  // options.chunk_rows snapped to pages

  // Cached global-metrics handles (null when observability is disabled).
  class Counter* local_queries_counter_;
};

}  // namespace iolap

#endif  // IOLAP_SERVE_GROUPBY_H_
