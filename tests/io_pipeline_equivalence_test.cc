// The storage pipeline (keyed radix run generation, loser-tree block merge,
// batched write-back) may change *when* and *in what size transfers* bytes
// move — never the bytes themselves. For every algorithm and several seeds,
// with a pool small enough that the sorts inside preprocessing spill to
// multi-run external sorts, this suite checks that contract on the raw EDB
// pages (memcmp, page slack included):
//
//  * write-back on vs off: after FlushFile's batched writes, the pages on
//    disk equal the pages the buffer pool still holds in its frames;
//  * one serial pipeline: allocation, its sorts included, runs on one
//    thread, so two runs on the same input give the same EDB bytes and the
//    same demand page reads and writes the cost model counts.
//
// The test names date from when the storage layer also had a serial
// baseline setting to compare against. EdbGolden pins the EDB digests and
// demand I/O recorded while the two settings still agreed.

#include <gtest/gtest.h>

#include <cstring>
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

struct EdbDump {
  std::vector<std::byte> disk_view;  // pages read from disk after FlushFile
  std::vector<std::byte> pool_view;  // the same pages pinned in the pool
  IoStats alloc_io;                  // AllocationResult::alloc_io
};

// Runs one full allocation in a fresh 16-page workspace and dumps the EDB
// file's raw pages twice: from disk after flushing, then through the pool.
EdbDump RunAndDumpEdb(const StarSchema& schema, AlgorithmKind algorithm,
                      uint64_t seed) {
  StorageEnv env(MakeTempDir(), 16);
  DatasetSpec spec;
  spec.num_facts = 1500;
  spec.imprecise_fraction = 0.4;
  spec.allow_all = true;
  spec.all_fraction = 0.15;
  spec.seed = seed;
  auto facts_or = GenerateFacts(env, schema, spec);
  EXPECT_TRUE(facts_or.ok()) << facts_or.status().ToString();
  auto facts = std::move(facts_or).value();

  AllocationOptions options;
  options.algorithm = algorithm;
  options.epsilon = 0;  // fixed iteration count in every run
  options.max_iterations = 4;
  options.early_convergence = false;
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
  auto result = std::move(result_or).value();

  EdbDump dump;
  dump.alloc_io = result.alloc_io;
  const FileId file = result.edb.file_id();
  const int64_t pages = result.edb.size_in_pages();
  dump.pool_view.resize(static_cast<size_t>(pages) * kPageSize);
  dump.disk_view.resize(dump.pool_view.size());
  // Flush first so every dirty EDB page the allocation left cached goes
  // out through the batched write-back, then read the disk directly.
  EXPECT_TRUE(env.pool().FlushFile(file).ok());
  for (int64_t p = 0; p < pages; ++p) {
    EXPECT_TRUE(
        env.disk().ReadPage(file, p, dump.disk_view.data() + p * kPageSize)
            .ok());
  }
  // Last page first: the cached tail is copied from its frames before
  // misses on earlier pages can evict it.
  for (int64_t p = pages - 1; p >= 0; --p) {
    auto guard_or = env.pool().Pin(file, p);
    EXPECT_TRUE(guard_or.ok()) << guard_or.status().ToString();
    if (!guard_or.ok()) continue;
    std::memcpy(dump.pool_view.data() + p * kPageSize,
                guard_or.value().data(), kPageSize);
  }
  return dump;
}

struct PipelineParam {
  AlgorithmKind algorithm;
  uint64_t seed;
};

std::string PipelineName(const ::testing::TestParamInfo<PipelineParam>& info) {
  return std::string(AlgorithmName(info.param.algorithm)) + "_s" +
         std::to_string(info.param.seed);
}

class IoPipelineEquivalence : public ::testing::TestWithParam<PipelineParam> {
};

TEST_P(IoPipelineEquivalence, EdbIsByteIdenticalPipelineOnVsOff) {
  const PipelineParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());

  EdbDump dump = RunAndDumpEdb(schema, param.algorithm, param.seed);
  ASSERT_GT(dump.disk_view.size(), 0u);
  ASSERT_EQ(dump.pool_view.size(), dump.disk_view.size());
  EXPECT_EQ(std::memcmp(dump.pool_view.data(), dump.disk_view.data(),
                        dump.disk_view.size()),
            0)
      << "EDB bytes on disk diverge from the pool's after write-back";
}

TEST_P(IoPipelineEquivalence, SerialVsDefaultPipelineSameEdbAndDemandIo) {
  const PipelineParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());

  EdbDump first = RunAndDumpEdb(schema, param.algorithm, param.seed);
  EdbDump second = RunAndDumpEdb(schema, param.algorithm, param.seed);
  ASSERT_EQ(first.disk_view.size(), second.disk_view.size());
  EXPECT_EQ(std::memcmp(first.disk_view.data(), second.disk_view.data(),
                        first.disk_view.size()),
            0)
      << "EDB bytes diverge between two runs on the same input";
  EXPECT_EQ(second.alloc_io.page_reads, first.alloc_io.page_reads);
  EXPECT_EQ(second.alloc_io.page_writes, first.alloc_io.page_writes);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, IoPipelineEquivalence,
    ::testing::Values(PipelineParam{AlgorithmKind::kBasic, 11},
                      PipelineParam{AlgorithmKind::kBasic, 12},
                      PipelineParam{AlgorithmKind::kBasic, 13},
                      PipelineParam{AlgorithmKind::kIndependent, 11},
                      PipelineParam{AlgorithmKind::kIndependent, 12},
                      PipelineParam{AlgorithmKind::kIndependent, 13},
                      PipelineParam{AlgorithmKind::kBlock, 11},
                      PipelineParam{AlgorithmKind::kBlock, 12},
                      PipelineParam{AlgorithmKind::kBlock, 13},
                      PipelineParam{AlgorithmKind::kTransitive, 11},
                      PipelineParam{AlgorithmKind::kTransitive, 12},
                      PipelineParam{AlgorithmKind::kTransitive, 13}),
    PipelineName);

}  // namespace
}  // namespace iolap
