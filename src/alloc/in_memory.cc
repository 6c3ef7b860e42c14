#include "alloc/in_memory.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "model/hierarchy.h"

namespace iolap {

MemoryAllocator::MemoryAllocator(const StarSchema* schema,
                                 std::vector<CellRecord> cells,
                                 std::vector<ImpreciseRecord> entries)
    : schema_(schema), cells_(std::move(cells)), entries_(std::move(entries)) {
  BuildEdges();
}

namespace {

/// The canonically sorted cells as one leaf column per dimension, plus the
/// run structure of that order: run_end(d)[i] is one past the last cell
/// that shares cell i's leaves on dimensions 0..d.
class CellColumns {
 public:
  CellColumns(const std::vector<CellRecord>& cells, int k)
      : n_(cells.size()), leaf_(n_ * k), run_end_(n_ * k) {
    for (size_t i = 0; i < n_; ++i) {
      for (int d = 0; d < k; ++d) leaf_[d * n_ + i] = cells[i].leaf[d];
    }
    for (size_t i = n_; i-- > 0;) {
      bool same_prefix = i + 1 < n_;
      for (int d = 0; d < k; ++d) {
        same_prefix = same_prefix && leaf_[d * n_ + i] == leaf_[d * n_ + i + 1];
        run_end_[d * n_ + i] = same_prefix ? run_end_[d * n_ + i + 1]
                                           : static_cast<int32_t>(i + 1);
      }
    }
  }

  const int32_t* leaf(int d) const { return leaf_.data() + d * n_; }
  const int32_t* run_end(int d) const { return run_end_.data() + d * n_; }

 private:
  size_t n_;
  std::vector<int32_t> leaf_;
  std::vector<int32_t> run_end_;
};

/// Appends to `out`, ascending, the indexes in [begin, end) of the cells
/// whose leaves lie in `[lo[d], hi[d])` on every dimension d..last. The
/// cells of the range agree on all dimensions before `d`, so (canonical
/// order being lexicographic in leaf ids) they are sorted by their leaf in
/// `d`: a binary search finds the box's first leaf, the range splits into
/// one run per distinct leaf, and the last constrained dimension's match is
/// one contiguous run.
void AppendBoxCells(const CellColumns& cols, const int32_t* lo,
                    const int32_t* hi, int d, int last, int32_t begin,
                    int32_t end, std::vector<int32_t>* out) {
  const int32_t* leaf = cols.leaf(d);
  int32_t first =
      static_cast<int32_t>(std::lower_bound(leaf + begin, leaf + end, lo[d]) -
                           leaf);
  if (d == last) {
    const int32_t stop = static_cast<int32_t>(
        std::lower_bound(leaf + first, leaf + end, hi[d]) - leaf);
    for (int32_t i = first; i < stop; ++i) out->push_back(i);
    return;
  }
  const int32_t* run_end = cols.run_end(d);
  while (first < end && leaf[first] < hi[d]) {
    AppendBoxCells(cols, lo, hi, d + 1, last, first, run_end[first], out);
    first = run_end[first];
  }
}

}  // namespace

void MemoryAllocator::BuildEdges() {
  const int k = schema_->num_dims();
  // Canonical order is lexicographic leaf order, because every dimension's
  // canonical term is its leaf ordinal. Transitive components arrive
  // sorted; maintenance hands in merged segment lists and fresh cells.
  auto canonical_less = [k](const CellRecord& a, const CellRecord& b) {
    return std::lexicographical_compare(a.leaf, a.leaf + k, b.leaf,
                                        b.leaf + k);
  };
  if (!std::is_sorted(cells_.begin(), cells_.end(), canonical_less)) {
    std::sort(cells_.begin(), cells_.end(), canonical_less);
  }
  const CellColumns cols(cells_, k);

  edge_begin_.assign(entries_.size() + 1, 0);
  edge_cells_.clear();
  const int32_t n = static_cast<int32_t>(cells_.size());
  for (size_t e = 0; e < entries_.size(); ++e) {
    // The region's leaf box; dimensions after `last` are unconstrained.
    int32_t lo[kMaxDims];
    int32_t hi[kMaxDims];
    int last = 0;
    for (int d = 0; d < k; ++d) {
      const Hierarchy& h = schema_->dim(d);
      lo[d] = h.leaf_begin(entries_[e].node[d]);
      hi[d] = h.leaf_end(entries_[e].node[d]);
      if (hi[d] - lo[d] < h.num_leaves()) last = d;
    }
    AppendBoxCells(cols, lo, hi, 0, last, 0, n, &edge_cells_);
    edge_begin_[e + 1] = static_cast<int64_t>(edge_cells_.size());
  }
}

double MemoryAllocator::Step(std::vector<double>* delta_cur) {
  // E-step: Γ(t)(r) from Δ(t-1).
  for (size_t e = 0; e < entries_.size(); ++e) {
    double gamma = 0;
    for (int32_t c : edges(e)) gamma += cells_[c].delta_prev;
    entries_[e].gamma = gamma;
  }
  // M-step: Δ(t)(c) = δ(c) + Σ_r Δ(t-1)(c)/Γ(t)(r).
  for (size_t c = 0; c < cells_.size(); ++c) {
    (*delta_cur)[c] = cells_[c].delta0;
  }
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (entries_[e].gamma <= 0) continue;
    for (int32_t c : edges(e)) {
      (*delta_cur)[c] += cells_[c].delta_prev / entries_[e].gamma;
    }
  }
  double max_eps = 0;
  for (size_t c = 0; c < cells_.size(); ++c) {
    double prev = cells_[c].delta_prev;
    double eps = prev != 0
                     ? std::fabs((*delta_cur)[c] - prev) / std::fabs(prev)
                     : ((*delta_cur)[c] == 0 ? 0.0 : 1.0);
    max_eps = std::max(max_eps, eps);
    cells_[c].delta_prev = (*delta_cur)[c];
    cells_[c].delta_cur = (*delta_cur)[c];
  }
  return max_eps;
}

int MemoryAllocator::Iterate(double epsilon, int max_iterations,
                             bool force_all_iterations) {
  std::vector<double> delta_cur(cells_.size());
  int iterations = 0;
  for (int t = 1; t <= max_iterations; ++t) {
    double max_eps = Step(&delta_cur);
    ++iterations;
    if (!force_all_iterations && max_eps < epsilon) break;
  }
  return iterations;
}

double MemoryAllocator::IterateOnce() {
  std::vector<double> delta_cur(cells_.size());
  return Step(&delta_cur);
}

template <typename Sink>
Status MemoryAllocator::EmitRows(int64_t* unallocatable, Sink&& sink) {
  for (size_t e = 0; e < entries_.size(); ++e) {
    double gamma = 0;
    for (int32_t c : edges(e)) gamma += cells_[c].delta_prev;
    entries_[e].gamma = gamma;
    entries_[e].num_cells = static_cast<int32_t>(edges(e).size());
    if (gamma <= 0) {
      ++*unallocatable;
      continue;
    }
    for (int32_t c : edges(e)) {
      if (cells_[c].delta_prev <= 0) continue;  // Definition 4: p_{c,r} > 0
      EdbRecord edb;
      edb.fact_id = entries_[e].fact_id;
      edb.measure = entries_[e].measure;
      edb.weight = cells_[c].delta_prev / gamma;
      std::memcpy(edb.leaf, cells_[c].leaf, sizeof(edb.leaf));
      IOLAP_RETURN_IF_ERROR(sink(edb));
    }
  }
  return Status::Ok();
}

Status MemoryAllocator::Emit(typename TypedFile<EdbRecord>::Appender* out,
                             int64_t* edges_emitted, int64_t* unallocatable) {
  return EmitRows(unallocatable, [&](const EdbRecord& edb) -> Status {
    IOLAP_RETURN_IF_ERROR(out->Append(edb));
    ++*edges_emitted;
    return Status::Ok();
  });
}

void MemoryAllocator::EmitToVector(std::vector<EdbRecord>* out,
                                   int64_t* unallocatable) {
  (void)EmitRows(unallocatable, [&](const EdbRecord& edb) {
    out->push_back(edb);
    return Status::Ok();
  });
}

}  // namespace iolap
