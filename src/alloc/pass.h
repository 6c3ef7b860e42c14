#ifndef IOLAP_ALLOC_PASS_H_
#define IOLAP_ALLOC_PASS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/union_find.h"
#include "model/records.h"
#include "model/schema.h"
#include "model/sort_key.h"
#include "storage/paged_file.h"

namespace iolap {

/// A contiguous record range of the imprecise file holding (part of) one
/// summary table, already sorted by region start key under the pass's
/// sort spec. `levels` is the table's level vector.
struct TableSegment {
  int64_t begin = 0;
  int64_t end = 0;
  int16_t table = -1;
  LevelVector levels{};
};

struct EmitStats {
  int64_t edges_emitted = 0;
  int64_t unallocatable_facts = 0;
};

/// Executes single passes over (a range of) the cell summary table against
/// a group of summary-table segments, maintaining one sliding window per
/// segment — the operational core shared by the Independent, Block and
/// Transitive algorithms.
///
/// Windows are *key-driven*: an entry is loaded once the scan reaches its
/// region's start key and evicted past its end key. Within one summary
/// table regions are hierarchy-aligned and pairwise disjoint, so start and
/// end orders agree and eviction is strictly front-to-back; the peak window
/// size is bounded by the table's partition size (Definition 9).
///
/// Every comparison is on integers computed once: a cell's packed key and
/// its ancestor ordinals per (dimension, level) the tables use, once per
/// cell; an entry's start and end key prefixes, once when it is read. Each
/// window keeps the smallest cell key at which it may load or evict, so an
/// idle window costs one compare, and finds the group covering a cell in a
/// flat open-addressed map keyed by ancestor ordinals.
class PassEngine {
 public:
  PassEngine(BufferPool* pool, const StarSchema* schema,
             TypedFile<CellRecord>* cells,
             TypedFile<ImpreciseRecord>* imprecise, const SpecComparator* cmp)
      : pool_(pool),
        schema_(schema),
        cells_(cells),
        imprecise_(imprecise),
        cmp_(cmp) {}

  /// Restricts passes to cells [begin, end) (Transitive processes one
  /// component's segment at a time). Defaults to the whole cell table.
  void SetCellRange(int64_t begin, int64_t end) {
    cell_begin_ = begin;
    cell_end_ = end;
  }

  /// Γ pass (template Equation 1): resets each entry's Γ and accumulates
  /// Δ(t-1)(c) over the cells it overlaps. Cells read-only; entries are
  /// written back on eviction.
  Status RunGamma(const std::vector<TableSegment>& tables);

  /// Δ pass (template Equation 2): accumulates Δ(t-1)(c)/Γ(t)(r) into
  /// Δ(t)(c). With `init_delta` (first group of the iteration) Δ(t)(c)
  /// starts from δ(c); with `finalize` (last group) the per-cell relative
  /// change is folded into `max_eps` and Δ(t) is promoted to Δ(t-1) for the
  /// next iteration. Cells read+write; entries read-only.
  Status RunDelta(const std::vector<TableSegment>& tables, bool init_delta,
                  bool finalize, double* max_eps);

  /// Component-identification pass (Transitive step 1): unions the ccids of
  /// each cell with every entry overlapping it. Cells and entries both
  /// written.
  Status RunCcid(const std::vector<TableSegment>& tables, UnionFind* uf);

  /// Emission pass: requires a preceding RunGamma against the *final* Δ so
  /// that Γ(r) = Σ_{c∈reg(r)} Δ(c); appends one EDB row per (cell, entry)
  /// edge with p = Δ(c)/Γ(r), which sums to exactly 1 per fact. Facts whose
  /// region overlaps no cell of C (Γ = 0) are counted as unallocatable.
  Status RunEmit(const std::vector<TableSegment>& tables,
                 typename TypedFile<EdbRecord>::Appender* out,
                 EmitStats* stats);

  /// Peak number of simultaneously open window entries seen by any pass so
  /// far (for validating partition-size bounds in tests).
  int64_t peak_window_records() const { return peak_window_records_; }

 private:
  enum class PassKind { kGamma, kDelta, kCcid, kEmit };

  class TableWindow;

  Status RunPass(PassKind kind, const std::vector<TableSegment>& tables,
                 bool init_delta, bool finalize, double* max_eps,
                 UnionFind* uf, typename TypedFile<EdbRecord>::Appender* out,
                 EmitStats* stats);

  BufferPool* pool_;
  const StarSchema* schema_;
  TypedFile<CellRecord>* cells_;
  TypedFile<ImpreciseRecord>* imprecise_;
  const SpecComparator* cmp_;
  int64_t cell_begin_ = 0;
  int64_t cell_end_ = -1;
  int64_t peak_window_records_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_ALLOC_PASS_H_
