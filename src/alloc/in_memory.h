#ifndef IOLAP_ALLOC_IN_MEMORY_H_
#define IOLAP_ALLOC_IN_MEMORY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/policy.h"
#include "common/result.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/paged_file.h"

namespace iolap {

/// In-memory evaluation of the allocation equations over one (sub)graph —
/// the Basic Algorithm (Algorithm 1), also reused by Transitive for every
/// connected component that fits in the buffer.
///
/// Thread compatibility: an instance owns all of its mutable state (its
/// copies of the cells and entries, the edge lists, and the Δ/Γ values) and
/// only reads the shared `schema`. A single instance is not thread-safe.
class MemoryAllocator {
 public:
  /// `cells` may arrive in any order (they are sorted into canonical order
  /// unless already in it). `entries` may come from any mix of summary
  /// tables; they are indexed against the cells once.
  MemoryAllocator(const StarSchema* schema, std::vector<CellRecord> cells,
                  std::vector<ImpreciseRecord> entries);

  /// Runs EM iterations until the per-cell relative change drops below
  /// `epsilon` everywhere, or `max_iterations` is reached. With
  /// `force_all_iterations` the convergence test is ignored (the
  /// no-early-convergence ablation). Returns the iterations executed.
  int Iterate(double epsilon, int max_iterations, bool force_all_iterations);

  /// Runs exactly one EM iteration and returns the max relative change of
  /// Δ. Stepping primitive for checkpointed Basic runs: all iteration state
  /// lives in the records (`delta_prev`, `gamma`), so interleaving
  /// IterateOnce with snapshots of cells()/entries() is equivalent to one
  /// uninterrupted Iterate call.
  double IterateOnce();

  /// Appends one EDB row per (entry, covered cell) with p = Δ(c)/Γ(r),
  /// where Γ is recomputed from the final Δ so weights sum to exactly 1.
  /// Entries overlapping no cell are counted as unallocatable.
  Status Emit(typename TypedFile<EdbRecord>::Appender* out,
              int64_t* edges_emitted, int64_t* unallocatable);

  /// Same as Emit but into an in-memory vector (used by the maintenance
  /// layer, which splices rows into existing EDB ranges).
  void EmitToVector(std::vector<EdbRecord>* out, int64_t* unallocatable);

  const std::vector<CellRecord>& cells() const { return cells_; }
  const std::vector<ImpreciseRecord>& entries() const { return entries_; }
  /// The indexes into cells() of the cells entry `e` overlaps, ascending.
  std::span<const int32_t> edges(size_t e) const {
    return {edge_cells_.data() + edge_begin_[e],
            edge_cells_.data() + edge_begin_[e + 1]};
  }
  /// Every entry's edges(e), concatenated in entry order.
  const std::vector<int32_t>& edge_cells() const { return edge_cells_; }

 private:
  void BuildEdges();
  double Step(std::vector<double>* delta_cur);
  template <typename Sink>
  Status EmitRows(int64_t* unallocatable, Sink&& sink);

  const StarSchema* schema_;
  std::vector<CellRecord> cells_;
  std::vector<ImpreciseRecord> entries_;
  // The allocation graph in CSR form: entries_[e] covers the cells
  // edge_cells_[edge_begin_[e]] .. edge_cells_[edge_begin_[e + 1] - 1].
  std::vector<int64_t> edge_begin_;
  std::vector<int32_t> edge_cells_;
};

}  // namespace iolap

#endif  // IOLAP_ALLOC_IN_MEMORY_H_
