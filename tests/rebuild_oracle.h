#ifndef IOLAP_TESTS_REBUILD_ORACLE_H_
#define IOLAP_TESTS_REBUILD_ORACLE_H_

// The maintenance tests' oracle: a maintained EDB must hold the same live
// rows as a from-scratch Transitive re-allocation of the mutated fact table
// (Theorem 9). Tombstoned rows are ignored when comparing.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "edb/maintenance.h"
#include "tests/test_util.h"

namespace iolap {

using CellKey = std::array<int32_t, kMaxDims>;
/// Live EDB rows: (fact, cell) -> (weight, measure).
using EdbMap = std::map<std::pair<FactId, CellKey>, std::pair<double, double>>;

inline EdbMap LoadLiveEdb(StorageEnv& env, const TypedFile<EdbRecord>& edb) {
  EdbMap out;
  auto cursor = edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&rec).ok());
    if (rec.IsTombstone()) continue;
    CellKey key{};
    std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
    auto [it, inserted] =
        out.emplace(std::make_pair(rec.fact_id, key),
                    std::make_pair(rec.weight, rec.measure));
    EXPECT_TRUE(inserted) << "duplicate live row for fact " << rec.fact_id;
  }
  return out;
}

inline Result<TypedFile<FactRecord>> WriteFacts(
    StorageEnv& env, const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

inline void ExpectEquivalentToRebuild(
    const StarSchema& schema, MaintenanceManager& manager,
    const std::vector<FactRecord>& final_facts,
    const AllocationOptions& options) {
  EdbMap incremental = LoadLiveEdb(manager.env(), manager.edb());
  StorageEnv env_rb(MakeTempDir(), 256);
  auto facts_rb = WriteFacts(env_rb, final_facts);
  ASSERT_TRUE(facts_rb.ok());
  AllocationOptions opts = options;
  opts.algorithm = AlgorithmKind::kTransitive;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AllocationResult rebuilt,
      Allocator::Run(env_rb, schema, &facts_rb.value(), opts));
  EdbMap rebuild = LoadLiveEdb(env_rb, rebuilt.edb);
  ASSERT_EQ(incremental.size(), rebuild.size());
  for (const auto& [key, wm] : rebuild) {
    auto it = incremental.find(key);
    ASSERT_NE(it, incremental.end()) << "missing row for fact " << key.first;
    EXPECT_NEAR(it->second.first, wm.first, 1e-6) << "fact " << key.first;
    EXPECT_NEAR(it->second.second, wm.second, 1e-9) << "fact " << key.first;
  }
}

}  // namespace iolap

#endif  // IOLAP_TESTS_REBUILD_ORACLE_H_
