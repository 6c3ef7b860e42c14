#include "synopsis/synopsis.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace iolap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Any delta: exact answers (bound 0) do not depend on it.
constexpr double kExactDelta = 0.05;

}  // namespace

SynopsisStore::SynopsisStore(StorageEnv* env, const StarSchema* schema,
                             const TypedFile<EdbRecord>* edb)
    : env_(env),
      schema_(schema),
      edb_(edb),
      builds_counter_(GlobalCounter("synopsis.builds")),
      commits_counter_(GlobalCounter("synopsis.commits")),
      patched_counter_(GlobalCounter("synopsis.entries_patched")),
      estimates_counter_(GlobalCounter("synopsis.estimates")),
      exact_counter_(GlobalCounter("synopsis.exact_answers")),
      entries_gauge_(GlobalGauge("synopsis.entries")) {
  // Default: one shard covering the whole dimension-0 leaf range.
  SetShardBounds({0, schema_->dim(0).num_leaves()});
}

void SynopsisStore::SetShardBounds(std::vector<int32_t> begins) {
  std::lock_guard<std::mutex> lock(mu_);
  begins_ = std::move(begins);
  const int shards = static_cast<int>(begins_.size()) - 1;
  slices_.assign(shards, {});
  int64_t entries = 0;
  for (int s = 0; s < shards; ++s) {
    slices_[s].resize(schema_->num_dims());
    for (int d = 0; d < schema_->num_dims(); ++d) {
      slices_[s][d].assign(schema_->dim(d).num_nodes(), SynopsisMoments{});
      entries += schema_->dim(d).num_nodes();
    }
  }
  pending_.clear();
  built_ = false;
  stale_ = false;
  stats_.entries = entries;
  if (entries_gauge_ != nullptr) entries_gauge_->Set(entries);
}

int SynopsisStore::ShardOfLeafLocked(int32_t leaf0) const {
  const auto it = std::upper_bound(begins_.begin() + 1, begins_.end(), leaf0);
  const int s = static_cast<int>(it - begins_.begin()) - 1;
  return std::clamp(s, 0, static_cast<int>(begins_.size()) - 2);
}

SynopsisMoments& SynopsisStore::SliceLocked(int shard, int dim, NodeId node) {
  return slices_[shard][dim][node];
}

const SynopsisMoments& SynopsisStore::SliceLocked(int shard, int dim,
                                                  NodeId node) const {
  return slices_[shard][dim][node];
}

void SynopsisStore::FoldRowLocked(const EdbRecord& rec, double sign) {
  const int shard = ShardOfLeafLocked(rec.leaf[0]);
  const double w = sign * rec.weight;
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const Hierarchy& h = schema_->dim(d);
    NodeId n = h.leaf_node(rec.leaf[d]);
    while (true) {
      SynopsisMoments& m = SliceLocked(shard, d, n);
      m.mass += w;
      m.swv += w * rec.measure;
      m.swv2 += w * rec.measure * rec.measure;
      m.rows += sign > 0 ? 1 : -1;
      m.vmin = std::min(m.vmin, rec.measure);
      m.vmax = std::max(m.vmax, rec.measure);
      if (n == h.root()) break;
      n = h.parent(n);
    }
  }
}

Status SynopsisStore::BuildLocked() {
  TraceSpan span("synopsis.build");
  for (auto& per_dim : slices_) {
    for (auto& nodes : per_dim) {
      std::fill(nodes.begin(), nodes.end(), SynopsisMoments{});
    }
  }
  auto cursor = edb_->Scan(env_->pool());
  EdbRecord rec;
  int64_t rows = 0;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    if (rec.IsTombstone()) continue;
    FoldRowLocked(rec, 1.0);
    ++rows;
  }
  pending_.clear();
  built_ = true;
  stale_ = false;
  ++stats_.builds;
  if (builds_counter_ != nullptr) builds_counter_->Add(1);
  span.AddArg("rows", rows);
  span.AddArg("shards", static_cast<int64_t>(slices_.size()));
  return Status::Ok();
}

Status SynopsisStore::Build() {
  std::lock_guard<std::mutex> lock(mu_);
  return BuildLocked();
}

Status SynopsisStore::RebuildIfStale() {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_ && !stale_) return Status::Ok();
  return BuildLocked();
}

void SynopsisStore::OnAdd(const EdbRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_ || stale_) return;  // a rebuild will see these rows anyway
  const int shard = ShardOfLeafLocked(rec.leaf[0]);
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const Hierarchy& h = schema_->dim(d);
    NodeId n = h.leaf_node(rec.leaf[d]);
    while (true) {
      Delta& delta = pending_[SliceKey{shard, d, n}];
      delta.dmass += rec.weight;
      delta.dswv += rec.weight * rec.measure;
      delta.dswv2 += rec.weight * rec.measure * rec.measure;
      delta.drows += 1;
      delta.add_min = std::min(delta.add_min, rec.measure);
      delta.add_max = std::max(delta.add_max, rec.measure);
      if (n == h.root()) break;
      n = h.parent(n);
    }
  }
}

void SynopsisStore::OnRemove(const EdbRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_ || stale_) return;
  const int shard = ShardOfLeafLocked(rec.leaf[0]);
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const Hierarchy& h = schema_->dim(d);
    NodeId n = h.leaf_node(rec.leaf[d]);
    while (true) {
      Delta& delta = pending_[SliceKey{shard, d, n}];
      delta.dmass -= rec.weight;
      delta.dswv -= rec.weight * rec.measure;
      delta.dswv2 -= rec.weight * rec.measure * rec.measure;
      delta.drows -= 1;
      delta.removed = true;
      if (n == h.root()) break;
      n = h.parent(n);
    }
  }
}

Status SynopsisStore::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_ || stale_) {
    pending_.clear();
    return Status::Ok();
  }
  TraceSpan span("synopsis.commit");
  int64_t patched = 0;
  for (const auto& [key, delta] : pending_) {
    const auto [shard, dim, node] = key;
    SynopsisMoments& m = SliceLocked(shard, dim, node);
    m.mass = std::max(m.mass + delta.dmass, 0.0);
    m.swv += delta.dswv;
    m.swv2 = std::max(m.swv2 + delta.dswv2, 0.0);
    m.rows = std::max<int64_t>(m.rows + delta.drows, 0);
    if (m.rows == 0) {
      // Exactly empty again: drop the floating-point residue and re-tighten
      // the envelope (an empty slice is perfectly known).
      m = SynopsisMoments{};
    } else {
      if (delta.add_min <= delta.add_max) {
        m.vmin = std::min(m.vmin, delta.add_min);
        m.vmax = std::max(m.vmax, delta.add_max);
      }
      if (delta.removed) m.minmax_patched = true;
    }
    ++patched;
  }
  pending_.clear();
  ++stats_.commits;
  stats_.patched += patched;
  if (commits_counter_ != nullptr) commits_counter_->Add(1);
  if (patched_counter_ != nullptr) patched_counter_->Add(patched);
  span.AddArg("entries", patched);
  return Status::Ok();
}

void SynopsisStore::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  stale_ = true;
}

Result<BoundedAggregate> SynopsisStore::EstimateAggregate(
    const QueryRegion& region, AggregateFunc func, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_RETURN_IF_ERROR(BeginEstimateLocked());
  BoundedAggregate out = EstimateLocked(region, func, delta);
  // An exact composition can still carry an infinite bound (MIN/MAX after
  // a removal patched the slice extremes); only bound-0 answers count.
  if (out.exact && out.bound == 0) CountExactLocked();
  return out;
}

Result<std::vector<AggregateResult>> SynopsisStore::ExactRollUp(
    const QueryRegion& region, int dim, int level, AggregateFunc func) {
  if (dim >= 0) IOLAP_RETURN_IF_ERROR(CheckRollUpArgs(*schema_, dim, level));
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_RETURN_IF_ERROR(BeginEstimateLocked());
  std::vector<AggregateResult> groups(RollUpGroups(*schema_, dim, level));
  for (size_t g = 0; g < groups.size(); ++g) {
    QueryRegion group;
    if (!RollUpGroupRegion(*schema_, region, dim, level, g, &group)) {
      FinalizeAggregate(&groups[g], func);
      continue;
    }
    const BoundedAggregate est = EstimateLocked(group, func, kExactDelta);
    if (est.bound != 0) {
      return Status::Unavailable("group not exact in the synopsis");
    }
    groups[g] = est.result;
  }
  CountExactLocked();
  return groups;
}

Status SynopsisStore::BeginEstimateLocked() {
  if (!built_ || stale_) {
    return Status::Unavailable("synopsis store unbuilt or stale");
  }
  ++stats_.estimates;
  if (estimates_counter_ != nullptr) estimates_counter_->Add(1);
  return Status::Ok();
}

void SynopsisStore::CountExactLocked() {
  ++stats_.exact_hits;
  if (exact_counter_ != nullptr) exact_counter_->Add(1);
}

BoundedAggregate SynopsisStore::EstimateLocked(const QueryRegion& region,
                                               AggregateFunc func,
                                               double delta) const {
  const QueryRegion reg = NormalizeRegion(*schema_, region);
  const Hierarchy& h0 = schema_->dim(0);
  const int32_t lo0 = h0.leaf_begin(reg.node[0]);
  const int32_t hi0 = h0.leaf_end(reg.node[0]);  // exclusive
  const int shards = static_cast<int>(begins_.size()) - 1;

  std::vector<ShardTerms> terms;
  for (int s = 0; s < shards; ++s) {
    const int32_t sb = begins_[s];
    const int32_t se = begins_[s + 1];
    if (se <= lo0 || sb >= hi0) continue;  // shard outside the dim-0 range
    const SynopsisMoments& total = SliceLocked(s, 0, h0.root());
    if (total.empty()) continue;

    // Which dimensions actually constrain this shard's rows? Dimension 0
    // is vacuous when the shard's leaf range sits inside the region's.
    std::vector<const SynopsisMoments*> cons;
    if (!(lo0 <= sb && hi0 >= se)) {
      cons.push_back(&SliceLocked(s, 0, reg.node[0]));
    }
    for (int d = 1; d < schema_->num_dims(); ++d) {
      if (RegionConstrainsDim(*schema_, reg, d)) {
        cons.push_back(&SliceLocked(s, d, reg.node[d]));
      }
    }

    ShardTerms t;
    if (cons.empty()) {
      // Whole shard is in the region: its totals are the exact answer.
      t.exact = true;
      t.mass = {total.mass, total.mass};
      t.sum = {total.swv, total.swv};
      t.mass_hat = total.mass;
      t.sum_hat = total.swv;
      t.vlo = total.vmin;
      t.vhi = total.vmax;
      t.minmax_exact = !total.minmax_patched;
    } else if (cons.size() == 1) {
      // One constrained dimension: the marginal slice is the region's rows.
      const SynopsisMoments& e = *cons[0];
      if (e.empty()) continue;
      t.exact = true;
      t.mass = {e.mass, e.mass};
      t.sum = {e.swv, e.swv};
      t.mass_hat = e.mass;
      t.sum_hat = e.swv;
      t.vlo = e.vmin;
      t.vhi = e.vmax;
      t.minmax_exact = !e.minmax_patched;
    } else {
      // Two or more constrained dimensions: the region's rows are the
      // intersection of the marginal slices; bound it with Fréchet + the
      // measure envelope, estimate it under marginal independence.
      bool skip = false;
      double vlo = -kInf;
      double vhi = kInf;
      std::vector<double> masses;
      masses.reserve(cons.size());
      const SynopsisMoments* pivot = nullptr;
      for (const SynopsisMoments* e : cons) {
        if (e->empty()) {
          skip = true;
          break;
        }
        vlo = std::max(vlo, e->vmin);
        vhi = std::min(vhi, e->vmax);
        masses.push_back(e->mass);
        if (pivot == nullptr || e->mass < pivot->mass) pivot = e;
      }
      if (skip) continue;
      if (vlo > vhi) continue;  // disjoint envelopes: provably empty
      const Interval frechet = FrechetIntersection(total.mass, masses);
      if (frechet.hi <= 0) continue;  // provably empty intersection

      double q = 1;
      for (const SynopsisMoments* e : cons) {
        if (e == pivot) continue;
        q *= std::clamp(e->mass / total.mass, 0.0, 1.0);
      }
      t.mass = frechet;
      t.mass_hat = pivot->mass * q;
      // Two certain routes to the slice sum: envelope × mass, and the
      // pivot's exact sum minus the excluded pivot mass's possible range.
      const Interval by_envelope = MassTimesRange(frechet, vlo, vhi);
      const Interval excluded{std::max(pivot->mass - frechet.hi, 0.0),
                              std::max(pivot->mass - frechet.lo, 0.0)};
      const Interval excluded_sum =
          MassTimesRange(excluded, pivot->vmin, pivot->vmax);
      const Interval by_pivot{pivot->swv - excluded_sum.hi,
                              pivot->swv - excluded_sum.lo};
      t.sum = IntersectIntervals(by_envelope, by_pivot);
      t.sum_hat = pivot->swv * q;
      // Concentration budgets (weights are <= 1, so Σw² <= Σw = mass and
      // Σ(wv)² <= Σwv² = swv2).
      t.hoeff_mass = pivot->mass;
      t.hoeff_sum = pivot->swv2;
      t.var_mass = q * (1 - q) * pivot->mass;
      t.var_sum = q * (1 - q) * pivot->swv2;
      t.vlo = vlo;
      t.vhi = vhi;
    }
    terms.push_back(t);
  }

  return ComposeBounded(terms, func, delta);
}

SynopsisMoments SynopsisStore::MomentsFor(int shard, int dim,
                                          NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SliceLocked(shard, dim, node);
}

SynopsisMoments SynopsisStore::ShardTotal(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SliceLocked(shard, 0, schema_->dim(0).root());
}

int SynopsisStore::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(begins_.size()) - 1;
}

bool SynopsisStore::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_ && !stale_;
}

SynopsisStore::Stats SynopsisStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace iolap
