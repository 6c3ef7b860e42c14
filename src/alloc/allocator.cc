#include "alloc/allocator.h"

#include <memory>

#include "alloc/algorithms.h"
#include "alloc/preprocess.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"

namespace iolap {

namespace {

/// Mirrors the run's headline numbers into the installed registry so the
/// metrics dump carries the same demand-I/O counts as AllocationResult
/// (the quantities the paper's theorems bound).
void PublishResult(const AllocationResult& result) {
  MetricsRegistry* m = GlobalMetrics();
  if (m == nullptr) return;
  auto io = [&](const char* phase, const IoStats& s) {
    std::string p = std::string("alloc.") + phase;
    m->counter(p + "_io.page_reads")->Add(s.page_reads);
    m->counter(p + "_io.page_writes")->Add(s.page_writes);
  };
  io("prep", result.prep_io);
  io("alloc", result.alloc_io);
  io("emit", result.emit_io);
  m->counter("alloc.iterations")->Add(result.iterations);
  m->counter("alloc.num_cells")->Add(result.num_cells);
  m->counter("alloc.num_precise")->Add(result.num_precise);
  m->counter("alloc.num_imprecise")->Add(result.num_imprecise);
  m->counter("alloc.num_groups")->Add(result.num_groups);
  m->counter("alloc.edges_emitted")->Add(result.edges_emitted);
  m->counter("alloc.unallocatable_facts")->Add(result.unallocatable_facts);
}

}  // namespace

Result<AllocationResult> Allocator::Run(StorageEnv& env,
                                        const StarSchema& schema,
                                        const TypedFile<FactRecord>* facts,
                                        const AllocationOptions& options) {
  TraceSpan run_span("alloc.run");
  AllocationResult result;
  IoStats io_before = env.disk().stats();
  Stopwatch watch;

  std::unique_ptr<CheckpointManager> ckpt;
  if (options.checkpoint.enabled()) {
    IOLAP_ASSIGN_OR_RETURN(
        ckpt, CheckpointManager::Open(&env, options, schema.num_dims()));
  }

  TraceSpan prep_span("alloc.prep");
  PreparedDataset data;
  bool resumed = false;
  if (ckpt != nullptr && options.checkpoint.resume) {
    // A successful resume restores both the prepared dataset (workspace
    // files imported from the checkpoint images) and the partial result;
    // no checkpoint found means a fresh run.
    IOLAP_ASSIGN_OR_RETURN(resumed, ckpt->TryResume(&data, &result));
  }
  if (!resumed) {
    IOLAP_ASSIGN_OR_RETURN(data, PrepareDataset(env, schema, facts, options));
  }
  result.prep_seconds = watch.ElapsedSeconds();
  result.prep_io = env.disk().stats() - io_before;
  prep_span.AddArg("page_reads", result.prep_io.page_reads);
  prep_span.AddArg("page_writes", result.prep_io.page_writes);
  prep_span.End();
  if (!resumed) {
    result.num_cells = data.cells.size();
    result.num_precise = data.num_precise_facts;
    result.num_imprecise = data.num_imprecise_facts;
    result.num_tables = static_cast<int>(data.tables.size());
  }
  // The precise facts' EDB rows were emitted during preprocessing; the
  // allocation rows are appended behind them.
  result.edb = data.precise_edb;

  io_before = env.disk().stats();
  watch.Restart();
  TraceSpan alloc_span("alloc.iterate");
  switch (options.algorithm) {
    case AlgorithmKind::kBasic:
      IOLAP_RETURN_IF_ERROR(
          RunBasic(env, schema, &data, options, &result, ckpt.get()));
      break;
    case AlgorithmKind::kIndependent:
    case AlgorithmKind::kBlock: {
      if (options.algorithm == AlgorithmKind::kIndependent) {
        IOLAP_RETURN_IF_ERROR(
            RunIndependent(env, schema, &data, options, &result, ckpt.get()));
      } else {
        IOLAP_RETURN_IF_ERROR(
            RunBlock(env, schema, &data, options, &result, ckpt.get()));
      }
      result.alloc_seconds = watch.ElapsedSeconds();
      result.alloc_io = env.disk().stats() - io_before;
      alloc_span.AddArg("iterations", result.iterations);
      alloc_span.End();
      io_before = env.disk().stats();
      watch.Restart();
      TraceSpan emit_span("alloc.emit");
      auto groups = PackTableGroups(data, env.buffer_pages());
      IOLAP_RETURN_IF_ERROR(EmitExternal(env, schema, &data, groups, &result));
      result.emit_seconds = watch.ElapsedSeconds();
      result.emit_io = env.disk().stats() - io_before;
      emit_span.AddArg("edges", result.edges_emitted);
      emit_span.End();
      PublishResult(result);
      return result;
    }
    case AlgorithmKind::kTransitive:
      // Transitive emits per component; emission time is folded into the
      // allocation phase (that is intrinsic to the algorithm).
      IOLAP_RETURN_IF_ERROR(RunTransitive(env, schema, &data, options,
                                          &result, nullptr, ckpt.get()));
      break;
  }
  result.alloc_seconds = watch.ElapsedSeconds();
  result.alloc_io = env.disk().stats() - io_before;
  alloc_span.AddArg("iterations", result.iterations);
  alloc_span.End();
  PublishResult(result);
  return result;
}

}  // namespace iolap
