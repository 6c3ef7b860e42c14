#ifndef IOLAP_ALLOC_PREPROCESS_H_
#define IOLAP_ALLOC_PREPROCESS_H_

#include "alloc/dataset.h"
#include "alloc/policy.h"
#include "common/result.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/storage_env.h"

namespace iolap {

/// The preprocessing step common to all allocation algorithms (Section 4.1):
/// one external sort of `facts` into summary-table order whose final merge
/// feeds one scan. The scan materializes the cell summary table C (δ(c)
/// seeded per policy, canonical sort order) and the page-aligned imprecise
/// summary tables, emits the EDB rows of the precise facts, and computes
/// each entry's conservative first/last bounds (from in-memory page fence
/// keys of C) and each table's partition size (Definition 9) as it writes
/// them. No file it writes is read back.
///
/// `facts` is read and never modified.
Result<PreparedDataset> PrepareDataset(StorageEnv& env,
                                       const StarSchema& schema,
                                       const TypedFile<FactRecord>* facts,
                                       const AllocationOptions& options);

}  // namespace iolap

#endif  // IOLAP_ALLOC_PREPROCESS_H_
