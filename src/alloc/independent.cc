#include <algorithm>

#include "alloc/algorithms.h"
#include "common/stopwatch.h"
#include "graph/chain_cover.h"
#include "model/sort_key.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "storage/external_sort.h"

namespace iolap {

namespace {

struct Chain {
  SpecComparator cmp;
  std::vector<TableSegment> segments;  // most imprecise first
};

}  // namespace

Status RunIndependent(StorageEnv& env, const StarSchema& schema,
                      PreparedDataset* data,
                      const AllocationOptions& options,
                      AllocationResult* result, CheckpointManager* ckpt) {
  // Decompose the summary-table partial order into W chains (Section 5.1).
  std::vector<LevelVector> levels;
  levels.reserve(data->tables.size());
  for (const SummaryTableInfo& t : data->tables) levels.push_back(t.levels);
  ChainCover cover = ComputeChainCover(levels, schema.num_dims());
  result->chain_width = cover.width;

  std::vector<Chain> chains;
  for (const auto& chain_tables : cover.chains) {
    std::vector<LevelVector> descending;
    std::vector<TableSegment> segments;
    for (int t : chain_tables) {
      descending.push_back(data->tables[t].levels);
      if (data->tables[t].size() > 0) {
        segments.push_back(TableSegment{data->tables[t].begin,
                                        data->tables[t].end,
                                        static_cast<int16_t>(t)});
      }
    }
    if (segments.empty()) continue;
    chains.push_back(Chain{
        SpecComparator(&schema, SortSpec::ForChain(schema, descending)),
        std::move(segments)});
  }
  result->num_groups = static_cast<int>(chains.size());

  ExternalSorter<CellRecord> cell_sorter(&env.disk(), &env.pool(),
                                         env.buffer_pages());
  ExternalSorter<ImpreciseRecord> entry_sorter(&env.disk(), &env.pool(),
                                               env.buffer_pages());

  const int max_iterations = options.EffectiveMaxIterations();
  // A checkpoint may capture the files in any chain's sort order — that is
  // fine, because every chain re-sorts them at the start of its own pass
  // and the canonical restore below re-sorts them after the loop.
  const int start = ckpt != nullptr ? ckpt->start_iteration() : 0;
  const bool skip_iterate = ckpt != nullptr && ckpt->resumed_converged();
  for (int t = start + 1; t <= max_iterations && !skip_iterate; ++t) {
    TraceSpan iteration_span("independent.iteration");
    iteration_span.AddArg("t", t);
    Stopwatch iteration_watch;
    IoStats io_before = env.disk().stats();
    double max_eps = 0;
    for (size_t g = 0; g < chains.size(); ++g) {
      Chain& chain = chains[g];
      TraceSpan chain_span("independent.chain");
      chain_span.AddArg("chain", static_cast<int64_t>(g));
      // Re-sort C and the chain's summary tables into the chain order —
      // the repeated sorting that dominates Independent's cost.
      IOLAP_RETURN_IF_ERROR(
          cell_sorter.Sort(&data->cells, CellSpecLess(&chain.cmp)));
      for (const TableSegment& seg : chain.segments) {
        IOLAP_RETURN_IF_ERROR(entry_sorter.SortRange(
            &data->imprecise, seg.begin, seg.end,
            EntrySpecLess(&chain.cmp)));
      }
      PassEngine engine(&env.pool(), &schema, &data->cells, &data->imprecise,
                        &chain.cmp);
      IOLAP_RETURN_IF_ERROR(engine.RunGamma(chain.segments));
      IOLAP_RETURN_IF_ERROR(engine.RunDelta(chain.segments,
                                            /*init_delta=*/g == 0,
                                            /*finalize=*/g + 1 == chains.size(),
                                            &max_eps));
      result->peak_window_records = std::max(result->peak_window_records,
                                             engine.peak_window_records());
    }
    result->iterations = t;
    result->final_eps = max_eps;
    result->per_iteration.push_back(IterationStats{
        max_eps, env.disk().stats() - io_before,
        iteration_watch.ElapsedSeconds()});
    if (ckpt != nullptr) {
      bool done = chains.empty() || max_eps < options.epsilon ||
                  t == max_iterations;
      if (done || ckpt->DueAtIteration(t)) {
        IOLAP_RETURN_IF_ERROR(ckpt->CheckpointIteration(t, done, data, *result));
      }
    }
    if (chains.empty() || max_eps < options.epsilon) break;
  }

  // Restore canonical order for the shared emission path.
  TraceSpan restore_span("independent.restore_canonical");
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  IOLAP_RETURN_IF_ERROR(
      cell_sorter.Sort(&data->cells, CellSpecLess(&canonical)));
  for (const Chain& chain : chains) {
    for (const TableSegment& seg : chain.segments) {
      IOLAP_RETURN_IF_ERROR(entry_sorter.SortRange(
          &data->imprecise, seg.begin, seg.end, EntrySpecLess(&canonical)));
    }
  }
  return Status::Ok();
}

}  // namespace iolap
