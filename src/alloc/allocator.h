#ifndef IOLAP_ALLOC_ALLOCATOR_H_
#define IOLAP_ALLOC_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "alloc/dataset.h"
#include "alloc/policy.h"
#include "common/result.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/io_stats.h"
#include "storage/storage_env.h"

namespace iolap {

/// Connected-component census produced by the Transitive algorithm.
struct ComponentCensus {
  int64_t num_components = 0;        // components containing imprecise facts
  int64_t num_singleton_cells = 0;   // cells overlapped by no imprecise fact
  int64_t largest_component = 0;     // tuples (cells + entries)
  int64_t num_large_components = 0;  // processed externally
  int64_t large_component_pages = 0; // |L| of Theorem 10
  int64_t max_component_iterations = 0;
  int64_t total_component_iterations = 0;
};

/// Convergence trace of one EM iteration (Block/Independent).
struct IterationStats {
  double max_eps = 0;
  IoStats io;
  double seconds = 0;
};

/// Everything observable about one allocation run. Benchmarks report, and
/// tests assert on, these fields.
struct AllocationResult {
  /// The Extended Database D*: precise rows (weight 1) followed by the
  /// allocated imprecise rows.
  TypedFile<EdbRecord> edb;

  int64_t num_cells = 0;
  int64_t num_precise = 0;
  int64_t num_imprecise = 0;
  int num_tables = 0;

  int iterations = 0;       // Block/Independent global iterations
  double final_eps = 0;     // max relative change in the last iteration
  int num_groups = 0;       // |S| (Block / Transitive)
  int chain_width = 0;      // W (Independent)
  int64_t edges_emitted = 0;
  int64_t unallocatable_facts = 0;
  int64_t peak_window_records = 0;

  ComponentCensus components;  // Transitive only

  /// Per-iteration convergence trace (Block and Independent).
  std::vector<IterationStats> per_iteration;

  double prep_seconds = 0, alloc_seconds = 0, emit_seconds = 0;
  IoStats prep_io, alloc_io, emit_io;

  double total_seconds() const {
    return prep_seconds + alloc_seconds + emit_seconds;
  }
};

/// Facade: preprocess the fact table and run the selected allocation
/// algorithm end-to-end, producing the Extended Database.
class Allocator {
 public:
  /// `facts` is read and never modified. All working files live in
  /// `env`'s disk manager; `env.pool()` bounds the algorithms' memory.
  static Result<AllocationResult> Run(StorageEnv& env,
                                      const StarSchema& schema,
                                      const TypedFile<FactRecord>* facts,
                                      const AllocationOptions& options);
};

}  // namespace iolap

#endif  // IOLAP_ALLOC_ALLOCATOR_H_
