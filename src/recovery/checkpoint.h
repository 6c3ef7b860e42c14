#ifndef IOLAP_RECOVERY_CHECKPOINT_H_
#define IOLAP_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/allocator.h"
#include "alloc/dataset.h"
#include "alloc/policy.h"
#include "common/result.h"
#include "common/status.h"
#include "model/records.h"
#include "storage/storage_env.h"

namespace iolap {

/// POD header of the on-disk checkpoint manifest (`manifest.<gen>`; see
/// docs/FORMAT.md). Followed by three trivially-copyable arrays
/// (SummaryTableInfo, ComponentInfo, IterationStats)
/// and a trailing FNV-1a 64 checksum over everything before it.
struct ManifestHeader {
  char magic[8];     // "IOLAPCK1"
  uint32_t version;  // kManifestVersion
  uint32_t flags;    // bit 0: basic payload, bit 1: iterate phase converged
  uint64_t generation;

  // Options fingerprint — resume refuses to continue under different knobs
  // (a different buffer budget alone changes Block's group packing and
  // therefore the floating-point accumulation order).
  int32_t algorithm;
  int32_t policy;
  int32_t domain;
  int32_t max_iterations;
  double epsilon;
  int64_t buffer_pages;
  int32_t early_convergence;
  int32_t num_dims;

  // Progress at the boundary this manifest commits.
  int32_t completed_iterations;  // Basic/Block/Independent global iterations
  int32_t num_groups;
  int64_t next_component;  // Transitive: finished components (the directory)
  double final_eps;
  int32_t chain_width;
  int32_t reserved0;

  // Partial AllocationResult counters.
  int64_t edges_emitted;
  int64_t unallocatable_facts;
  int64_t peak_window_records;
  int64_t census_num_components;
  int64_t census_num_singleton_cells;
  int64_t census_largest_component;
  int64_t census_num_large_components;
  int64_t census_large_component_pages;
  int64_t census_max_component_iterations;
  int64_t census_total_component_iterations;

  // Dataset metadata (reconstructs PreparedDataset without re-prepping).
  int64_t num_precise;
  int64_t num_imprecise;
  int64_t cells_count;      // records in cells.<gen>
  int64_t imprecise_count;  // records in imprecise.<gen>
  int64_t edb_count;        // records in edb.<gen>
  int64_t cells_pages;      // page-image sizes (0 in basic-payload mode)
  int64_t imprecise_pages;
  int64_t edb_pages;

  // Lengths of the trailing arrays.
  uint32_t num_tables;
  uint32_t num_directory;
  uint32_t num_per_iteration;
};
static_assert(std::is_trivially_copyable_v<ManifestHeader>,
              "manifest header must be memcpy-able");

inline constexpr uint32_t kManifestVersion = 2;
inline constexpr uint32_t kManifestFlagBasicPayload = 1u << 0;
inline constexpr uint32_t kManifestFlagConverged = 1u << 1;

/// Crash-consistent checkpoint/restart for allocation runs (DESIGN.md §9).
///
/// At iteration boundaries (Basic/Block/Independent) or component
/// boundaries (Transitive) the manager copies the run's mutable files —
/// cells, imprecise entries, the EDB — into generation-numbered files in
/// the checkpoint directory and then commits them atomically with a
/// checksummed manifest (write temp → fsync → rename → fsync dir). The
/// previous generation is kept until the new manifest is durable, so a
/// crash at any instant leaves at least one restorable generation.
///
/// All checkpoint I/O bypasses the IoStats counters (it is not demand I/O
/// of the paper's cost model; the `ckpt.*` metrics report it instead) but
/// still consults the DiskManager fault injector (op 'c') so recovery tests
/// can kill a run mid-checkpoint.
///
/// Not thread-safe: the allocation loops call it from the one thread that
/// runs them.
class CheckpointManager {
 public:
  /// Creates the checkpoint directory if needed. `options` supplies both
  /// the fingerprint and the cadence (`options.checkpoint`).
  static Result<std::unique_ptr<CheckpointManager>> Open(
      StorageEnv* env, const AllocationOptions& options, int num_dims);

  // --- Resume (facade side) -----------------------------------------------

  /// Scans the directory for the newest manifest that passes the checksum
  /// and whose data files are intact, falling back one generation on a torn
  /// manifest. On success restores `data` (fresh workspace files imported
  /// from the checkpoint images) and `result`, and returns true. Returns
  /// false when no usable checkpoint exists (caller preprocesses from
  /// scratch). A valid manifest with a mismatched options fingerprint is an
  /// error, not a fallback — silently recomputing hours of work under
  /// different knobs would be worse than stopping.
  Result<bool> TryResume(PreparedDataset* data, AllocationResult* result);

  // --- Resume (algorithm side) --------------------------------------------

  bool resumed() const { return resumed_; }
  /// Completed global iterations; the loop continues at start+1.
  int start_iteration() const { return resumed_ ? header_.completed_iterations : 0; }
  /// True when the iterate phase finished before the crash; the resumed run
  /// skips straight to emission.
  bool resumed_converged() const {
    return resumed_ && (header_.flags & kManifestFlagConverged) != 0;
  }
  /// Transitive: the restored directory of the finished components
  /// [0, next_component) (valid once per resume). They are final — their
  /// EDB rows are inside the restored EDB image — and never reprocessed.
  std::vector<ComponentInfo> TakeDirectory() { return std::move(directory_); }
  /// Basic stores its in-memory vectors instead of page images.
  bool has_basic_state() const {
    return resumed_ && (header_.flags & kManifestFlagBasicPayload) != 0;
  }
  Status LoadBasicState(std::vector<CellRecord>* cells,
                        std::vector<ImpreciseRecord>* entries);

  // --- Checkpointing ------------------------------------------------------

  /// True when iteration boundary `t` is a checkpoint boundary
  /// (`checkpoint.every` cadence).
  bool DueAtIteration(int t) const { return t % every_ == 0; }
  /// True when `processed` components are done and a checkpoint is due.
  bool DueAtComponent(int64_t processed) const {
    return processed - last_component_ >= every_;
  }

  /// Commits the state at the end of global iteration `t` (Block and
  /// Independent: all iteration state lives in the cells/imprecise files).
  /// `converged` marks the iterate phase complete. No-op if `t` was already
  /// committed.
  Status CheckpointIteration(int t, bool converged, PreparedDataset* data,
                             const AllocationResult& result);

  /// Commits the state after Transitive finished the components in
  /// `directory`: the component-sorted files, the EDB with their rows
  /// emitted, and the directory. `final` marks the run complete, tail
  /// census included: a resumed run then has nothing left to do.
  Status CheckpointComponents(PreparedDataset* data,
                              const AllocationResult& result,
                              const std::vector<ComponentInfo>& directory,
                              bool final = false);

  /// Commits Basic's state at the end of iteration `t`: the in-memory
  /// cell/entry vectors are written as raw payloads (no buffer-pool
  /// traffic), the EDB as a page image.
  Status CheckpointBasic(int t, bool converged,
                         const std::vector<CellRecord>& cells,
                         const std::vector<ImpreciseRecord>& entries,
                         PreparedDataset* data,
                         const AllocationResult& result);

 private:
  CheckpointManager(StorageEnv* env, std::string directory,
                    const AllocationOptions& options, int num_dims);

  std::string DataPath(const char* name, uint64_t gen) const;
  std::string ManifestPath(uint64_t gen) const;

  /// The one save path behind the three Checkpoint* entry points.
  Status Save(int iteration, bool converged, int64_t next_component,
              const std::vector<ComponentInfo>* directory,
              const std::vector<CellRecord>* basic_cells,
              const std::vector<ImpreciseRecord>* basic_entries,
              PreparedDataset* data, const AllocationResult& result);

  /// Flushes `file` through the pool and copies `pages` of it into the
  /// checkpoint directory.
  Status ExportImage(FileId file, int64_t pages, const std::string& dest);

  Status WriteBlob(const std::string& path, const void* bytes, size_t n,
                   bool do_fsync);
  Result<std::string> ReadBlob(const std::string& path) const;

  /// Parses and fully validates one manifest generation; returns false on a
  /// torn manifest or missing/truncated data files (fall back), an error on
  /// a fingerprint mismatch (stop).
  Result<bool> LoadGeneration(uint64_t gen);
  Status CheckFingerprint(const ManifestHeader& h) const;
  Status Restore(PreparedDataset* data, AllocationResult* result);
  void DeleteGeneration(uint64_t gen) const;

  StorageEnv* env_;
  std::string directory_path_;
  AllocationOptions options_;
  int num_dims_;
  int every_;

  // Resume state.
  bool resumed_ = false;
  ManifestHeader header_{};
  std::vector<SummaryTableInfo> tables_;
  std::vector<ComponentInfo> directory_;
  std::vector<IterationStats> per_iteration_;

  // Save-side bookkeeping.
  uint64_t last_gen_ = 0;
  int last_iteration_ = -1;
  bool last_converged_ = false;
  int64_t last_component_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_RECOVERY_CHECKPOINT_H_
