#include "alloc/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "alloc/in_memory.h"
#include "common/rng.h"
#include "graph/union_find.h"
#include "model/sort_key.h"

namespace iolap {

namespace {

struct SampleStats {
  int iterations = 0;
  int64_t components = 0;
  int64_t largest = 0;
  int64_t tuples = 0;
};

/// Builds the in-memory allocation graph of `sample` and returns its
/// component census (and EM iteration count when `run_em`).
SampleStats AnalyzeSample(const StarSchema& schema,
                          const std::vector<FactRecord>& sample,
                          const EstimateOptions& options, bool run_em) {
  const int k = schema.num_dims();
  using Key = std::array<int32_t, kMaxDims>;
  std::map<Key, double> delta;
  std::vector<ImpreciseRecord> entries;
  AllocationOptions policy_options;
  policy_options.policy = options.policy;
  for (const FactRecord& f : sample) {
    if (f.IsPrecise(k)) {
      Key key{};
      for (int d = 0; d < k; ++d) key[d] = schema.dim(d).leaf_begin(f.node[d]);
      auto [it, inserted] = delta.emplace(key, policy_options.DeltaBase());
      it->second += policy_options.DeltaContribution(f);
    } else {
      ImpreciseRecord rec;
      rec.fact_id = f.fact_id;
      rec.measure = f.measure;
      std::memcpy(rec.node, f.node, sizeof(rec.node));
      std::memcpy(rec.level, f.level, sizeof(rec.level));
      entries.push_back(rec);
    }
  }
  std::vector<CellRecord> cells;
  cells.reserve(delta.size());
  for (const auto& [key, d] : delta) {  // std::map: already canonical order
    CellRecord c;
    std::memcpy(c.leaf, key.data(), sizeof(c.leaf));
    c.delta0 = d;
    c.delta_prev = d;
    cells.push_back(c);
  }

  MemoryAllocator ma(&schema, std::move(cells), std::move(entries));
  SampleStats stats;
  if (run_em) {
    stats.iterations = ma.Iterate(options.epsilon, options.max_iterations,
                                  /*force_all_iterations=*/false);
  }
  const int64_t num_cells = static_cast<int64_t>(ma.cells().size());
  const int64_t num_entries = static_cast<int64_t>(ma.entries().size());
  stats.tuples = num_cells + num_entries;
  UnionFind uf(static_cast<int32_t>(num_cells + num_entries));
  std::vector<bool> cell_connected(num_cells, false);
  for (int64_t e = 0; e < num_entries; ++e) {
    for (int32_t c : ma.edges(static_cast<size_t>(e))) {
      uf.Union(static_cast<int32_t>(num_cells + e), c);
      cell_connected[c] = true;
    }
  }
  std::map<int32_t, int64_t> sizes;
  for (int64_t e = 0; e < num_entries; ++e) {
    if (!ma.edges(static_cast<size_t>(e)).empty()) {
      ++sizes[uf.Find(static_cast<int32_t>(num_cells + e))];
    }
  }
  for (int64_t c = 0; c < num_cells; ++c) {
    if (cell_connected[c]) ++sizes[uf.Find(static_cast<int32_t>(c))];
  }
  stats.components = static_cast<int64_t>(sizes.size());
  for (const auto& [root, size] : sizes) {
    stats.largest = std::max(stats.largest, size);
  }
  return stats;
}

}  // namespace

Result<AllocationEstimate> EstimateAllocation(
    StorageEnv& env, const StarSchema& schema,
    const TypedFile<FactRecord>& facts, const EstimateOptions& options) {
  AllocationEstimate out;
  if (facts.size() == 0) return out;

  // One-pass reservoir sample.
  const int64_t m = std::min<int64_t>(options.sample_size, facts.size());
  std::vector<FactRecord> sample;
  sample.reserve(m);
  Rng rng(options.seed);
  {
    auto cursor = facts.Scan(env.pool());
    FactRecord f;
    int64_t seen = 0;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&f));
      if (static_cast<int64_t>(sample.size()) < m) {
        sample.push_back(f);
      } else {
        int64_t slot = static_cast<int64_t>(rng.Uniform(seen + 1));
        if (slot < m) sample[slot] = f;
      }
      ++seen;
    }
  }
  out.sampled_facts = static_cast<int64_t>(sample.size());
  out.sample_rate =
      static_cast<double>(out.sampled_facts) / static_cast<double>(facts.size());

  SampleStats full = AnalyzeSample(schema, sample, options, /*run_em=*/true);
  out.estimated_iterations = full.iterations;
  out.sample_components = full.components;
  out.sample_largest_component = full.largest;
  out.largest_fraction =
      full.tuples > 0 ? static_cast<double>(full.largest) / full.tuples : 0;

  // Growth-exponent extrapolation: measure the largest component at half
  // the sample too. Local (subcritical) components stop growing with the
  // sample (exponent ~ 0); a giant component grows near-linearly
  // (exponent ~ 1); near the percolation threshold we interpolate. This is
  // robust where plain fraction-scaling fails: vertex sampling thins edges
  // and shatters a sparse giant component.
  double exponent = 0;
  if (full.largest > 4 && out.sampled_facts >= 64) {
    // A uniformly random half of the reservoir is itself a uniform sample.
    std::vector<FactRecord> half = sample;
    for (size_t i = half.size(); i > 1; --i) {
      std::swap(half[i - 1], half[rng.Uniform(i)]);
    }
    half.resize(half.size() / 2);
    SampleStats half_stats =
        AnalyzeSample(schema, half, options, /*run_em=*/false);
    if (half_stats.largest > 0) {
      exponent = std::log2(static_cast<double>(full.largest) /
                           static_cast<double>(half_stats.largest));
      exponent = std::clamp(exponent, 0.0, 1.5);
    }
  }
  out.growth_exponent = exponent;
  out.giant_component = exponent >= options.giant_exponent_threshold &&
                        out.largest_fraction * exponent > 0;

  if (out.sample_rate >= 1.0) {
    out.estimated_largest_component = full.largest;
  } else if (out.giant_component) {
    double scale = std::pow(1.0 / out.sample_rate, exponent);
    out.estimated_largest_component = std::min<int64_t>(
        static_cast<int64_t>(static_cast<double>(full.largest) * scale),
        static_cast<int64_t>(static_cast<double>(full.tuples) /
                             out.sample_rate));
  } else {
    out.estimated_largest_component = full.largest;
    out.largest_is_lower_bound = true;
  }
  return out;
}

}  // namespace iolap
