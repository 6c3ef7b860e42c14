// Golden EDBs for every algorithm: for a fixed dense input, each of Basic,
// Independent, Block and Transitive must produce exactly the EDB bytes
// (FNV-1a digest over the scanned records, and row count) and the
// allocation-phase demand page reads and writes recorded below. The pool is
// small, so the sorts inside preprocessing spill to multi-run external
// sorts and the window engine recycles frames; any change to sort order,
// merge tie-breaks, floating-point summation order or the I/O schedule the
// cost model counts shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Result<StarSchema> MakeDenseSchema() {
  std::vector<Hierarchy> dims;
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d0, HierarchyBuilder::Uniform("D0", {3, 3}));
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d1,
                         HierarchyBuilder::Uniform("D1", {2, 2, 2}));
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d2, HierarchyBuilder::Uniform("D2", {4, 2}));
  dims.push_back(d0);
  dims.push_back(d1);
  dims.push_back(d2);
  return StarSchema::Create(std::move(dims));
}

struct GoldenParam {
  AlgorithmKind algorithm;
  uint64_t seed;
  uint64_t digest;  // FNV-1a 64 over the EDB records in file order
  int64_t rows;
  int64_t page_reads;   // AllocationResult::alloc_io
  int64_t page_writes;
};

// Recorded while the storage layer still had a serial baseline setting
// (page-at-a-time merge, per-page write-back, one run-generation thread);
// it produced these same values as the tuned pipeline. The writes include
// the dirty frames preprocessing hands over in the pool (the tails of C, I
// and the precise EDB, which it writes but never reads back); the
// allocation phase writes them back.
constexpr GoldenParam kGolden[] = {
    {AlgorithmKind::kBasic, 11, 0x399cb85739ff4766ULL, 3769, 31, 69},
    {AlgorithmKind::kBasic, 12, 0x897910917c2ccbcaULL, 3706, 29, 67},
    {AlgorithmKind::kBasic, 13, 0xb454a9fe24679aa7ULL, 3595, 30, 65},
    {AlgorithmKind::kIndependent, 11, 0xfac603ab40225139ULL, 3769, 361, 372},
    {AlgorithmKind::kIndependent, 12, 0x05d9f6421b002266ULL, 3706, 348, 363},
    {AlgorithmKind::kIndependent, 13, 0x24e81284b5502c61ULL, 3595, 352, 367},
    {AlgorithmKind::kBlock, 11, 0xc8831a6a5435a220ULL, 3769, 249, 139},
    {AlgorithmKind::kBlock, 12, 0xb303dbdad420a21eULL, 3706, 218, 127},
    {AlgorithmKind::kBlock, 13, 0x0969c2031e218c15ULL, 3595, 234, 135},
    {AlgorithmKind::kTransitive, 11, 0xc8831a6a5435a220ULL, 3769, 148, 181},
    {AlgorithmKind::kTransitive, 12, 0xbb071be2cc72edaeULL, 3706, 128, 152},
    {AlgorithmKind::kTransitive, 13, 0x537e246b55a08b0fULL, 3595, 133, 153},
};

void PrintTo(const GoldenParam& p, std::ostream* os) {
  *os << "(" << AlgorithmName(p.algorithm) << ", seed " << p.seed << ")";
}

std::string GoldenName(const ::testing::TestParamInfo<GoldenParam>& info) {
  return std::string(AlgorithmName(info.param.algorithm)) + "_s" +
         std::to_string(info.param.seed);
}

class EdbGolden : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(EdbGolden, EdbAndDemandIoArePinned) {
  const GoldenParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  StorageEnv env(MakeTempDir(), 16);
  DatasetSpec spec;
  spec.num_facts = 1500;
  spec.imprecise_fraction = 0.4;
  spec.allow_all = true;
  spec.all_fraction = 0.15;
  spec.seed = param.seed;
  IOLAP_ASSERT_OK_AND_ASSIGN(TypedFile<FactRecord> facts,
                             GenerateFacts(env, schema, spec));

  AllocationOptions options;
  options.algorithm = param.algorithm;
  options.epsilon = 0;  // fixed iteration count
  options.max_iterations = 4;
  options.early_convergence = false;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));

  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  int64_t rows = 0;
  auto cursor = result.edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_ASSERT_OK(cursor.Next(&rec));
    const auto* bytes = reinterpret_cast<const unsigned char*>(&rec);
    for (size_t i = 0; i < sizeof(rec); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
    ++rows;
  }
  EXPECT_EQ(rows, param.rows);
  EXPECT_EQ(h, param.digest);
  EXPECT_EQ(result.alloc_io.page_reads, param.page_reads);
  EXPECT_EQ(result.alloc_io.page_writes, param.page_writes);
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsAndSeeds, EdbGolden,
                         ::testing::ValuesIn(kGolden), GoldenName);

}  // namespace
}  // namespace iolap
