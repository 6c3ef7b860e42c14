#include "edb/query.h"

#include <vector>

namespace iolap {

Result<AggregateResult> QueryEngine::Aggregate(
    const QueryRegion& region, AggregateFunc func,
    ImpreciseSemantics semantics) const {
  AggregateResult out;
  if (semantics == ImpreciseSemantics::kAllocationWeighted) {
    auto cursor = edb_->Scan(env_->pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
      if (rec.IsTombstone()) continue;
      if (!RegionContainsLeaf(*schema_, region, rec.leaf)) continue;
      AccumulateAggregate(&out, rec.weight, rec.measure);
    }
  } else {
    if (facts_ == nullptr) {
      return Status::FailedPrecondition(
          "None/Contains/Overlaps semantics require the original fact table");
    }
    const int k = schema_->num_dims();
    const Rect query_rect = RegionToRect(*schema_, region);
    auto cursor = facts_->Scan(env_->pool());
    FactRecord fact;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&fact));
      bool counted;
      if (fact.IsPrecise(k)) {
        int32_t leaf[kMaxDims] = {};
        for (int d = 0; d < k; ++d) {
          leaf[d] = schema_->dim(d).leaf_begin(fact.node[d]);
        }
        counted = RegionContainsLeaf(*schema_, region, leaf);
      } else if (semantics == ImpreciseSemantics::kNone) {
        counted = false;
      } else {
        Rect fact_rect;
        for (int d = 0; d < k; ++d) {
          const Hierarchy& h = schema_->dim(d);
          fact_rect.lo[d] = h.leaf_begin(fact.node[d]);
          fact_rect.hi[d] = h.leaf_end(fact.node[d]) - 1;
        }
        counted = semantics == ImpreciseSemantics::kContains
                      ? RectContains(query_rect, fact_rect, k)
                      : RectsIntersect(query_rect, fact_rect, k);
      }
      if (counted) AccumulateAggregate(&out, 1.0, fact.measure);
    }
  }
  FinalizeAggregate(&out, func);
  return out;
}

Result<std::vector<AggregateResult>> QueryEngine::RollUp(
    const QueryRegion& region, int dim, int level,
    AggregateFunc func) const {
  IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  const Hierarchy& h = schema_->dim(dim);
  std::vector<AggregateResult> groups(h.num_nodes_at_level(level));
  auto cursor = edb_->Scan(env_->pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    if (!RegionContainsLeaf(*schema_, region, rec.leaf)) continue;
    AggregateResult& g = groups[h.LeafAncestorOrdinal(rec.leaf[dim], level)];
    AccumulateAggregate(&g, rec.weight, rec.measure);
  }
  for (AggregateResult& g : groups) FinalizeAggregate(&g, func);
  return groups;
}

Result<std::vector<EdbRecord>> QueryEngine::FactsIn(
    const QueryRegion& region) const {
  std::vector<EdbRecord> out;
  auto cursor = edb_->Scan(env_->pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    if (RegionContainsLeaf(*schema_, region, rec.leaf)) out.push_back(rec);
  }
  return out;
}

Result<std::vector<EdbRecord>> QueryEngine::CompletionsOf(
    FactId fact_id) const {
  // Negative ids are never real facts — in particular fact_id = -1 would
  // otherwise match every maintenance tombstone (Definition 4).
  if (fact_id < 0) {
    return Status::InvalidArgument("CompletionsOf: fact_id must be >= 0");
  }
  std::vector<EdbRecord> out;
  auto cursor = edb_->Scan(env_->pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    if (rec.fact_id == fact_id) out.push_back(rec);
  }
  return out;
}

}  // namespace iolap
