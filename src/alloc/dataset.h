#ifndef IOLAP_ALLOC_DATASET_H_
#define IOLAP_ALLOC_DATASET_H_

#include <cstdint>
#include <vector>

#include "model/records.h"
#include "model/schema.h"
#include "storage/paged_file.h"

namespace iolap {

/// One imprecise summary table (Definition 7): a page-aligned segment
/// [begin, end) of the imprecise file whose facts share `levels`.
struct SummaryTableInfo {
  LevelVector levels{};
  int64_t begin = 0;
  int64_t end = 0;
  /// Partition size (Definition 9) against the canonical cell order, in
  /// records and in pages — computed conservatively from page fences.
  int64_t partition_records = 0;
  int64_t partition_pages = 0;

  int64_t size() const { return end - begin; }
};

/// Output of the preprocessing step shared by all algorithms: the fact
/// table, in summary-table order, split into the cell summary table C
/// (canonical order, δ seeded) and the imprecise summary tables.
struct PreparedDataset {
  TypedFile<CellRecord> cells;
  TypedFile<ImpreciseRecord> imprecise;
  std::vector<SummaryTableInfo> tables;

  int64_t num_precise_facts = 0;
  int64_t num_imprecise_facts = 0;

  /// EDB rows for the precise facts (each allocates 1.0 to its own cell),
  /// emitted during preprocessing.
  TypedFile<EdbRecord> precise_edb;
};

}  // namespace iolap

#endif  // IOLAP_ALLOC_DATASET_H_
