#include "serve/groupby.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "edb/columnar.h"
#include "obs/metrics.h"

namespace iolap {

namespace {

/// Group counts at most this use dense per-chunk arrays; above it a
/// per-chunk open-addressing hash.
constexpr int64_t kDenseGroupLimit = 512;

/// Chunk-private group accumulator: dense array for small group counts, an
/// open-addressing hash (linear probing, power-of-two capacity) above
/// kDenseGroupLimit. Both hold exactly one accumulator per touched group,
/// so which one is chosen never changes any value — only memory.
class LocalAcc {
 public:
  explicit LocalAcc(int64_t num_groups)
      : dense_(num_groups <= kDenseGroupLimit) {
    if (dense_) {
      vals_.resize(num_groups);
    } else {
      capacity_ = 64;
      keys_.assign(capacity_, -1);
      vals_.resize(capacity_);
    }
  }

  void Add(int32_t g, double weight, double measure) {
    if (dense_) {
      AccumulateAggregate(&vals_[g], weight, measure);
      return;
    }
    if (size_ * 10 >= capacity_ * 7) Grow();
    size_t slot = static_cast<size_t>(g) & (capacity_ - 1);
    while (keys_[slot] != -1 && keys_[slot] != g) {
      slot = (slot + 1) & (capacity_ - 1);
    }
    if (keys_[slot] == -1) {
      keys_[slot] = g;
      ++size_;
    }
    AccumulateAggregate(&vals_[slot], weight, measure);
  }

  /// Merges every touched group into `out` (groups with no matching rows
  /// are skipped, so merging is a no-op for untouched chunks). Distinct
  /// groups are independent accumulators, so the iteration order within
  /// one chunk cannot affect any value.
  void MergeInto(std::vector<AggregateResult>* out) const {
    if (dense_) {
      for (size_t g = 0; g < vals_.size(); ++g) {
        if (vals_[g].count > 0) MergeAggregate(&(*out)[g], vals_[g]);
      }
    } else {
      for (size_t s = 0; s < capacity_; ++s) {
        if (keys_[s] != -1) MergeAggregate(&(*out)[keys_[s]], vals_[s]);
      }
    }
  }

 private:
  void Grow() {
    const size_t new_capacity = capacity_ * 2;
    std::vector<int32_t> keys(new_capacity, -1);
    std::vector<AggregateResult> vals(new_capacity);
    for (size_t s = 0; s < capacity_; ++s) {
      if (keys_[s] == -1) continue;
      size_t slot = static_cast<size_t>(keys_[s]) & (new_capacity - 1);
      while (keys[slot] != -1) slot = (slot + 1) & (new_capacity - 1);
      keys[slot] = keys_[s];
      vals[slot] = vals_[s];
    }
    keys_.swap(keys);
    vals_.swap(vals);
    capacity_ = new_capacity;
  }

  bool dense_;
  std::vector<AggregateResult> vals_;
  std::vector<int32_t> keys_;  // hash only; -1 = empty
  size_t capacity_ = 0;        // hash only; power of two
  size_t size_ = 0;            // hash only
};

}  // namespace

GroupByEngine::GroupByEngine(StorageEnv* env, const StarSchema* schema,
                             const TypedFile<EdbRecord>* edb, ThreadPool* pool,
                             const GroupByOptions& options)
    : env_(env),
      schema_(schema),
      edb_(edb),
      pool_(pool),
      local_queries_counter_(GlobalCounter("serve.groupby.local_queries")) {
  // Snap the grid unit up to whole pages so no two chunks share a page and
  // every task's read pins are for pages only it touches.
  const int64_t rpp = TypedFile<EdbRecord>::kRecordsPerPage;
  const int64_t want = std::max<int64_t>(1, options.chunk_rows);
  chunk_rows_ = ((want + rpp - 1) / rpp) * rpp;
}

std::vector<GroupByEngine::Chunk> GroupByEngine::BuildChunks(
    const std::vector<RowRange>& ranges) const {
  std::vector<Chunk> chunks;
  for (const RowRange& r : ranges) {
    int64_t pos = r.begin;
    while (pos < r.end) {
      const int64_t id = pos / chunk_rows_;
      const int64_t stop = std::min(r.end, (id + 1) * chunk_rows_);
      if (!chunks.empty() && chunks.back().id == id) {
        chunks.back().parts.push_back({pos, stop});
      } else {
        chunks.push_back({id, {{pos, stop}}});
      }
      pos = stop;
    }
  }
  return chunks;
}

namespace {

/// Scans one chunk's row parts, filtering tombstones and the region, and
/// feeds matching rows to `fn(group, weight, measure)` in ascending row
/// order. `dim < 0` puts every row in group 0 (point aggregate).
template <typename Fn>
Status ScanChunk(StorageEnv* env, const StarSchema* schema,
                 const TypedFile<EdbRecord>* edb,
                 const std::vector<RowRange>& parts, const QueryRegion& region,
                 int dim, int level, int64_t* rows_seen, Fn&& fn) {
  const Hierarchy* h = dim >= 0 ? &schema->dim(dim) : nullptr;
  EdbRecord rec;
  for (const RowRange& part : parts) {
    auto cursor = edb->Scan(env->pool(), part.begin, part.end);
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
      ++*rows_seen;
      if (rec.IsTombstone()) continue;
      if (!RegionContainsLeaf(*schema, region, rec.leaf)) continue;
      const int32_t g =
          h != nullptr ? h->LeafAncestorOrdinal(rec.leaf[dim], level) : 0;
      fn(g, rec.weight, rec.measure);
    }
  }
  return Status::Ok();
}

/// Columnar twin of ScanChunk: identical rows, order, filter outcomes and
/// (g, weight, measure) doubles, but decodes only the projected columns —
/// weight + measure + the leaf dimensions the region constrains or the
/// rollup groups by. Tombstones are skipped on weight alone (sound because
/// the conversion step rejects weight-0 rows that are not tombstones).
template <typename Fn>
Status ScanChunkColumnar(StorageEnv* env, const StarSchema* schema,
                         const ColumnarEdb* columnar,
                         const std::vector<RowRange>& parts,
                         const QueryRegion& region, int dim, int level,
                         int64_t* rows_seen, Fn&& fn) {
  const Hierarchy* h = dim >= 0 ? &schema->dim(dim) : nullptr;
  const EdbProjection proj = AggregateScanProjection(*schema, region, dim);
  bool filter[kMaxDims] = {};
  for (int d = 0; d < schema->num_dims(); ++d) {
    filter[d] = RegionConstrainsDim(*schema, region, d);
  }
  int64_t seen = 0;
  for (const RowRange& part : parts) {
    IOLAP_RETURN_IF_ERROR(columnar->ScanRows(
        env->pool(), part.begin, part.end, proj,
        [&](const ColumnarEdb::Row& row) {
          ++seen;
          if (ColumnarEdb::IsTombstone(row.weight)) return;
          for (int d = 0; d < schema->num_dims(); ++d) {
            if (filter[d] &&
                !schema->dim(d).Covers(region.node[d], row.leaf[d])) {
              return;
            }
          }
          const int32_t g =
              h != nullptr ? h->LeafAncestorOrdinal(row.leaf[dim], level) : 0;
          fn(g, row.weight, row.measure);
        }));
  }
  *rows_seen += seen;
  return Status::Ok();
}

}  // namespace

Result<std::vector<AggregateResult>> GroupByEngine::RollUp(
    const std::vector<RowRange>& ranges, const QueryRegion& region, int dim,
    int level, AggregateFunc func, GroupByStats* stats,
    const ColumnarEdb* columnar) {
  if (dim >= 0) IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  if (local_queries_counter_ != nullptr) local_queries_counter_->Add(1);
  const int64_t num_groups = RollUpGroups(*schema_, dim, level);
  const std::vector<Chunk> chunks = BuildChunks(ranges);
  const size_t n = chunks.size();
  std::vector<AggregateResult> groups(num_groups);
  std::vector<std::unique_ptr<LocalAcc>> accs(n);
  std::vector<int64_t> rows(n, 0);
  // Scans chunk c into its own partial: touches only accs[c], rows[c] and
  // the thread-safe buffer pool, so chunks can scan on any thread.
  const auto scan = [&](size_t c) -> Status {
    accs[c] = std::make_unique<LocalAcc>(num_groups);
    LocalAcc* acc = accs[c].get();
    auto add = [acc](int32_t g, double w, double m) { acc->Add(g, w, m); };
    if (columnar != nullptr) {
      return ScanChunkColumnar(env_, schema_, columnar, chunks[c].parts,
                               region, dim, level, &rows[c], add);
    }
    return ScanChunk(env_, schema_, edb_, chunks[c].parts, region, dim, level,
                     &rows[c], add);
  };

  // With a pool, chunk scans run on it with at most 4 x threads of them in
  // flight (every chunk of one query costs the same, so this bounds the
  // partials held). Partials fold into the result in ascending chunk order
  // on this thread, whichever worker finished first. Without a pool each
  // chunk is scanned and folded inline.
  const size_t window =
      pool_ != nullptr ? 4 * static_cast<size_t>(pool_->num_threads()) : 0;
  std::vector<TaskFuture> futures(n);
  size_t submitted = 0;
  Status status;
  for (size_t c = 0; c < n; ++c) {
    while (pool_ != nullptr && submitted < std::min(n, c + window)) {
      const size_t next = submitted++;
      futures[next] = pool_->Submit([&scan, next] { return scan(next); });
    }
    status = futures[c].valid() ? futures[c].Wait() : scan(c);
    if (!status.ok()) break;  // the first failing chunk in chunk order
    accs[c]->MergeInto(&groups);
    accs[c].reset();
  }
  // Never return while a submitted scan may still touch this frame.
  for (size_t c = 0; c < submitted; ++c) {
    const Status drained = futures[c].Wait();
    (void)drained;
  }
  IOLAP_RETURN_IF_ERROR(status);

  if (stats != nullptr) {
    for (int64_t r : rows) stats->rows_scanned += r;
    stats->chunks = static_cast<int64_t>(n);
  }
  for (AggregateResult& g : groups) FinalizeAggregate(&g, func);
  return groups;
}

}  // namespace iolap
