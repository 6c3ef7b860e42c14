#include <algorithm>

#include "alloc/algorithms.h"
#include "common/stopwatch.h"
#include "graph/bin_packing.h"
#include "model/sort_key.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"

namespace iolap {

std::vector<std::vector<TableSegment>> PackTableGroups(
    const PreparedDataset& data, int64_t buffer_pages) {
  // Reserve a few pages for the scan cursors (one cell page, one page per
  // table cursor, EDB output) before packing partitions.
  int64_t capacity = std::max<int64_t>(1, buffer_pages - 4);
  std::vector<int64_t> sizes;
  sizes.reserve(data.tables.size());
  for (const SummaryTableInfo& t : data.tables) {
    sizes.push_back(t.partition_pages);
  }
  PackingResult packed = FirstFitDecreasing(sizes, capacity);
  std::vector<std::vector<TableSegment>> groups(packed.num_bins);
  for (size_t i = 0; i < data.tables.size(); ++i) {
    const SummaryTableInfo& t = data.tables[i];
    if (t.size() == 0) continue;
    groups[packed.bin_of[i]].push_back(
        TableSegment{t.begin, t.end, static_cast<int16_t>(i), t.levels});
  }
  // Drop bins that ended up empty (zero-size tables).
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return groups;
}

Status EmitExternal(StorageEnv& env, const StarSchema& schema,
                    PreparedDataset* data,
                    const std::vector<std::vector<TableSegment>>& groups,
                    AllocationResult* result) {
  TraceSpan span("emit.external");
  span.AddArg("groups", static_cast<int64_t>(groups.size()));
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  PassEngine engine(&env.pool(), &schema, &data->cells, &data->imprecise,
                    &canonical);
  // Recompute Γ against the final Δ so per-fact weights sum to exactly 1.
  for (const auto& group : groups) {
    IOLAP_RETURN_IF_ERROR(engine.RunGamma(group));
  }
  EmitStats stats;
  auto appender = result->edb.MakeAppender(env.pool());
  for (const auto& group : groups) {
    IOLAP_RETURN_IF_ERROR(engine.RunEmit(group, &appender, &stats));
  }
  appender.Close();
  result->edges_emitted += stats.edges_emitted;
  result->unallocatable_facts += stats.unallocatable_facts;
  return Status::Ok();
}

Status RunBlock(StorageEnv& env, const StarSchema& schema,
                PreparedDataset* data, const AllocationOptions& options,
                AllocationResult* result, CheckpointManager* ckpt) {
  auto groups = PackTableGroups(*data, env.buffer_pages());
  result->num_groups = static_cast<int>(groups.size());

  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  PassEngine engine(&env.pool(), &schema, &data->cells, &data->imprecise,
                    &canonical);

  const int max_iterations = options.EffectiveMaxIterations();
  // All iteration state is in the cells/imprecise records (delta_prev,
  // gamma), so a restored file image plus the completed-iteration counter
  // resumes the loop exactly.
  const int start = ckpt != nullptr ? ckpt->start_iteration() : 0;
  const bool skip_iterate = ckpt != nullptr && ckpt->resumed_converged();
  for (int t = start + 1; t <= max_iterations && !skip_iterate; ++t) {
    TraceSpan iteration_span("block.iteration");
    iteration_span.AddArg("t", t);
    Stopwatch iteration_watch;
    IoStats io_before = env.disk().stats();
    for (const auto& group : groups) {
      TraceSpan gamma_span("block.gamma");
      IOLAP_RETURN_IF_ERROR(engine.RunGamma(group));
    }
    double max_eps = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      TraceSpan delta_span("block.delta");
      IOLAP_RETURN_IF_ERROR(engine.RunDelta(groups[g], /*init_delta=*/g == 0,
                                            /*finalize=*/g + 1 == groups.size(),
                                            &max_eps));
    }
    result->iterations = t;
    result->final_eps = max_eps;
    result->per_iteration.push_back(IterationStats{
        max_eps, env.disk().stats() - io_before,
        iteration_watch.ElapsedSeconds()});
    if (ckpt != nullptr) {
      bool done = max_eps < options.epsilon || t == max_iterations;
      if (done || ckpt->DueAtIteration(t)) {
        IOLAP_RETURN_IF_ERROR(ckpt->CheckpointIteration(t, done, data, *result));
      }
    }
    if (max_eps < options.epsilon) break;
  }
  result->peak_window_records =
      std::max(result->peak_window_records, engine.peak_window_records());
  return Status::Ok();
}

}  // namespace iolap
