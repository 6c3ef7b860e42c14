// The I/O pipeline knobs (parallel run generation, loser-tree block merge,
// batched write-back) may change *when* and *in what size
// transfers* bytes move — never the bytes themselves. This suite pins that
// contract at its strongest: for every algorithm and several seeds, the EDB
// produced with the pipeline fully on must be byte-identical (memcmp of the
// raw pages) to the EDB produced by the fully serial pre-overhaul pipeline.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "storage/io_pipeline.h"
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

// Runs one full allocation and returns the EDB file's raw page bytes.
// With `alloc_io`, also reports the allocation phase's I/O counters.
std::vector<std::byte> RunAndDumpEdb(const StarSchema& schema,
                                     AlgorithmKind algorithm, uint64_t seed,
                                     const IoPipelineOptions& io,
                                     IoStats* alloc_io = nullptr) {
  // Small pool so the sorts inside preprocessing spill to multi-run
  // external sorts and the window engine actually recycles frames.
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
  options.epsilon = 0;  // fixed iteration count in both pipelines
  options.max_iterations = 4;
  options.early_convergence = false;
  options.io = io;
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
  auto result = std::move(result_or).value();
  if (alloc_io != nullptr) *alloc_io = result.alloc_io;

  EXPECT_TRUE(env.pool().FlushFile(result.edb.file_id()).ok());
  std::vector<std::byte> bytes(
      static_cast<size_t>(result.edb.size_in_pages()) * kPageSize);
  for (int64_t p = 0; p < result.edb.size_in_pages(); ++p) {
    EXPECT_TRUE(env.disk()
                    .ReadPage(result.edb.file_id(), p,
                              bytes.data() + p * kPageSize)
                    .ok());
  }
  return bytes;
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

  std::vector<std::byte> serial = RunAndDumpEdb(
      schema, param.algorithm, param.seed, IoPipelineOptions::Serial());

  IoPipelineOptions pipelined;  // defaults: everything on
  pipelined.sort_threads = 4;   // force concurrent run generation
  std::vector<std::byte> piped =
      RunAndDumpEdb(schema, param.algorithm, param.seed, pipelined);

  ASSERT_EQ(serial.size(), piped.size());
  EXPECT_EQ(std::memcmp(serial.data(), piped.data(), serial.size()), 0)
      << "EDB bytes diverge between serial and pipelined I/O";
}

// The default pipeline must change neither the EDB bytes nor the demand
// page reads and writes the cost model counts. The serial run is the
// reference for both.
TEST_P(IoPipelineEquivalence, SerialVsDefaultPipelineSameEdbAndDemandIo) {
  const PipelineParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());

  IoStats serial_io;
  std::vector<std::byte> serial =
      RunAndDumpEdb(schema, param.algorithm, param.seed,
                    IoPipelineOptions::Serial(), &serial_io);
  IoStats piped_io;
  std::vector<std::byte> piped = RunAndDumpEdb(
      schema, param.algorithm, param.seed, IoPipelineOptions{}, &piped_io);
  ASSERT_EQ(serial.size(), piped.size());
  EXPECT_EQ(std::memcmp(serial.data(), piped.data(), serial.size()), 0)
      << "EDB bytes diverge between serial and default pipeline";
  EXPECT_EQ(piped_io.page_reads, serial_io.page_reads);
  EXPECT_EQ(piped_io.page_writes, serial_io.page_writes);
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
