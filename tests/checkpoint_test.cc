// Crash-resume equivalence: a run killed at an arbitrary I/O operation and
// resumed from its newest checkpoint must produce an EDB byte-identical to
// an uninterrupted run (the equivalence config pins epsilon = 0, a fixed
// max_iterations, and early_convergence = false, so every run executes the
// same EM iterations). Also pins the demand-I/O contract (checkpointing
// adds no demand reads), torn-manifest fallback, and the options
// fingerprint.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
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

constexpr int64_t kNumFacts = 1500;
constexpr uint64_t kSeed = 7;
constexpr int64_t kBufferPages = 16;

TypedFile<FactRecord> MakeFacts(StorageEnv& env, const StarSchema& schema) {
  DatasetSpec spec;
  spec.num_facts = kNumFacts;
  spec.imprecise_fraction = 0.4;
  spec.allow_all = true;
  spec.all_fraction = 0.15;
  spec.seed = kSeed;
  auto facts_or = GenerateFacts(env, schema, spec);
  EXPECT_TRUE(facts_or.ok()) << facts_or.status().ToString();
  return std::move(facts_or).value();
}

AllocationOptions EquivalenceOptions(AlgorithmKind algorithm) {
  AllocationOptions options;
  options.algorithm = algorithm;
  options.epsilon = 0;  // every run executes the same iterations
  options.max_iterations = 4;
  options.early_convergence = false;
  return options;
}

// Checkpoint every boundary for the iteration algorithms; Transitive hits a
// boundary per component, so use a coarser cadence to keep the test fast.
int CadenceFor(AlgorithmKind algorithm) {
  return algorithm == AlgorithmKind::kTransitive ? 25 : 1;
}

std::vector<std::byte> DumpEdb(StorageEnv& env,
                               const AllocationResult& result) {
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

std::vector<std::byte> RunBaseline(const StarSchema& schema,
                                   AlgorithmKind algorithm) {
  StorageEnv env(MakeTempDir(), kBufferPages);
  auto facts = MakeFacts(env, schema);
  AllocationOptions options = EquivalenceOptions(algorithm);
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
  auto result = std::move(result_or).value();
  return DumpEdb(env, result);
}

// Resumes in a fresh environment (simulating a new process after a crash)
// and returns the EDB bytes.
std::vector<std::byte> ResumeAndDump(const StarSchema& schema,
                                     AlgorithmKind algorithm,
                                     const std::string& ckpt_dir) {
  StorageEnv env(MakeTempDir(), kBufferPages);
  auto facts = MakeFacts(env, schema);
  AllocationOptions options = EquivalenceOptions(algorithm);
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.every = CadenceFor(algorithm);
  options.checkpoint.resume = true;
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
  auto result = std::move(result_or).value();
  return DumpEdb(env, result);
}

// Runs with checkpointing and a fault injector that kills the run at the
// `failure_point`-th operation of kind `fail_op` ('*' = any). Returns true
// if the fault actually fired (the run failed).
bool RunKilled(const StarSchema& schema, AlgorithmKind algorithm,
               const std::string& ckpt_dir, int failure_point, char fail_op) {
  StorageEnv env(MakeTempDir(), kBufferPages);
  auto facts = MakeFacts(env, schema);
  int countdown = failure_point;
  env.disk().SetFaultInjector([&](char op, FileId, PageId) {
    if (fail_op != '*' && op != fail_op) return Status::Ok();
    return --countdown <= 0 ? Status::IoError("injected crash")
                            : Status::Ok();
  });
  AllocationOptions options = EquivalenceOptions(algorithm);
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.every = CadenceFor(algorithm);
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_EQ(result_or.ok(), countdown > 0);
  return countdown <= 0;
}

struct CrashParam {
  AlgorithmKind algorithm;
  int failure_point;
  char fail_op;  // '*' = any operation, 'c' = checkpoint writes only
};

std::string CrashName(const ::testing::TestParamInfo<CrashParam>& info) {
  std::string op = info.param.fail_op == 'c' ? "ckpt" : "any";
  return std::string(AlgorithmName(info.param.algorithm)) + "_" + op + "_" +
         std::to_string(info.param.failure_point);
}

class CheckpointCrashResume : public ::testing::TestWithParam<CrashParam> {};

TEST_P(CheckpointCrashResume, ResumedEdbIsByteIdentical) {
  const CrashParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());

  std::vector<std::byte> baseline = RunBaseline(schema, param.algorithm);

  // Kill, then resume in a fresh environment. If the failure point lies
  // beyond the run (it completed), the resume still exercises
  // restore-after-final-checkpoint and must stay identical.
  std::string ckpt_dir = MakeTempDir();
  RunKilled(schema, param.algorithm, ckpt_dir, param.failure_point,
            param.fail_op);
  std::vector<std::byte> resumed =
      ResumeAndDump(schema, param.algorithm, ckpt_dir);

  ASSERT_EQ(baseline.size(), resumed.size());
  EXPECT_EQ(std::memcmp(baseline.data(), resumed.data(), baseline.size()), 0)
      << "EDB bytes diverge between uninterrupted and killed-then-resumed "
         "runs";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CheckpointCrashResume,
    ::testing::Values(
        // Kill at any operation: early points land in preprocessing (no
        // checkpoint yet -> resume falls back to a fresh run), middle
        // points land mid-iterate, late points land during emission.
        CrashParam{AlgorithmKind::kBasic, 40, '*'},
        CrashParam{AlgorithmKind::kBasic, 300, '*'},
        CrashParam{AlgorithmKind::kBasic, 1200, '*'},
        CrashParam{AlgorithmKind::kIndependent, 40, '*'},
        CrashParam{AlgorithmKind::kIndependent, 800, '*'},
        CrashParam{AlgorithmKind::kIndependent, 3000, '*'},
        CrashParam{AlgorithmKind::kBlock, 40, '*'},
        CrashParam{AlgorithmKind::kBlock, 500, '*'},
        CrashParam{AlgorithmKind::kBlock, 2000, '*'},
        CrashParam{AlgorithmKind::kTransitive, 40, '*'},
        CrashParam{AlgorithmKind::kTransitive, 800, '*'},
        CrashParam{AlgorithmKind::kTransitive, 3000, '*'},
        // Kill inside a checkpoint write itself: the manifest commit
        // protocol must leave the previous generation restorable.
        CrashParam{AlgorithmKind::kBasic, 2, 'c'},
        CrashParam{AlgorithmKind::kIndependent, 5, 'c'},
        CrashParam{AlgorithmKind::kBlock, 5, 'c'},
        CrashParam{AlgorithmKind::kBlock, 40, 'c'},
        CrashParam{AlgorithmKind::kTransitive, 10, 'c'}),
    CrashName);

// ---------------------------------------------------------------------------

std::filesystem::path NewestManifest(const std::string& ckpt_dir) {
  std::filesystem::path newest;
  uint64_t best = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("manifest.", 0) != 0) continue;
    uint64_t gen = std::strtoull(name.c_str() + 9, nullptr, 10);
    if (gen > best) {
      best = gen;
      newest = entry.path();
    }
  }
  EXPECT_FALSE(newest.empty()) << "no manifest in " << ckpt_dir;
  return newest;
}

// Runs to completion with checkpointing so the directory holds the last two
// generations.
void RunCheckpointed(const StarSchema& schema, AlgorithmKind algorithm,
                     const std::string& ckpt_dir) {
  StorageEnv env(MakeTempDir(), kBufferPages);
  auto facts = MakeFacts(env, schema);
  AllocationOptions options = EquivalenceOptions(algorithm);
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.every = CadenceFor(algorithm);
  auto result_or = Allocator::Run(env, schema, &facts, options);
  EXPECT_TRUE(result_or.ok()) << result_or.status().ToString();
}

TEST(CheckpointTornManifestTest, TruncatedManifestFallsBackOneGeneration) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  std::vector<std::byte> baseline = RunBaseline(schema, AlgorithmKind::kBlock);

  std::string ckpt_dir = MakeTempDir();
  RunCheckpointed(schema, AlgorithmKind::kBlock, ckpt_dir);

  // Tear the newest manifest in half: the checksum must reject it and
  // resume must fall back to the previous generation.
  std::filesystem::path newest = NewestManifest(ckpt_dir);
  auto size = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, size / 2);

  std::vector<std::byte> resumed =
      ResumeAndDump(schema, AlgorithmKind::kBlock, ckpt_dir);
  ASSERT_EQ(baseline.size(), resumed.size());
  EXPECT_EQ(std::memcmp(baseline.data(), resumed.data(), baseline.size()), 0);
}

TEST(CheckpointTornManifestTest, CorruptedManifestFallsBackOneGeneration) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  std::vector<std::byte> baseline = RunBaseline(schema, AlgorithmKind::kBlock);

  std::string ckpt_dir = MakeTempDir();
  RunCheckpointed(schema, AlgorithmKind::kBlock, ckpt_dir);

  // Flip bytes in the middle of the newest manifest (size unchanged): only
  // the checksum can catch this.
  std::filesystem::path newest = NewestManifest(ckpt_dir);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(newest)) /
            2);
    const char garbage[8] = {0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a};
    f.write(garbage, sizeof(garbage));
  }

  std::vector<std::byte> resumed =
      ResumeAndDump(schema, AlgorithmKind::kBlock, ckpt_dir);
  ASSERT_EQ(baseline.size(), resumed.size());
  EXPECT_EQ(std::memcmp(baseline.data(), resumed.data(), baseline.size()), 0);
}

TEST(CheckpointTornManifestTest, AllManifestsTornFallsBackToFreshRun) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  std::vector<std::byte> baseline = RunBaseline(schema, AlgorithmKind::kBlock);

  std::string ckpt_dir = MakeTempDir();
  RunCheckpointed(schema, AlgorithmKind::kBlock, ckpt_dir);
  for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("manifest.", 0) != 0) continue;
    std::filesystem::resize_file(entry.path(), 3);
  }

  std::vector<std::byte> resumed =
      ResumeAndDump(schema, AlgorithmKind::kBlock, ckpt_dir);
  ASSERT_EQ(baseline.size(), resumed.size());
  EXPECT_EQ(std::memcmp(baseline.data(), resumed.data(), baseline.size()), 0);
}

TEST(CheckpointFingerprintTest, MismatchedOptionsRefuseToResume) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  std::string ckpt_dir = MakeTempDir();
  RunCheckpointed(schema, AlgorithmKind::kBlock, ckpt_dir);

  StorageEnv env(MakeTempDir(), kBufferPages);
  auto facts = MakeFacts(env, schema);
  AllocationOptions options = EquivalenceOptions(AlgorithmKind::kBlock);
  options.max_iterations = 7;  // differs from the checkpointed run
  options.checkpoint.directory = ckpt_dir;
  options.checkpoint.resume = true;
  Result<AllocationResult> result =
      Allocator::Run(env, schema, &facts, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------

// Checkpointing must never perturb the demand-I/O schedule the paper's cost
// model counts: page_reads are identical with the feature on and off
// (checkpoint copies bypass IoStats; flushes write but never evict, so no
// demand read is re-issued). Write counts may differ because a
// flushed-then-redirtied page is written twice. That asymmetry is exactly
// why checkpoint traffic is reported under ckpt.* instead.
TEST(CheckpointIoPurityTest, DemandReadsUnchangedByCheckpointing) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeDenseSchema());
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kBasic, AlgorithmKind::kIndependent,
        AlgorithmKind::kBlock, AlgorithmKind::kTransitive}) {
    IoStats stats_off, stats_on;
    std::vector<std::byte> edb_off, edb_on;
    {
      StorageEnv env(MakeTempDir(), kBufferPages);
      auto facts = MakeFacts(env, schema);
      AllocationOptions options = EquivalenceOptions(algorithm);
      IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                                 Allocator::Run(env, schema, &facts, options));
      stats_off = env.disk().stats();
      edb_off = DumpEdb(env, result);
    }
    {
      StorageEnv env(MakeTempDir(), kBufferPages);
      auto facts = MakeFacts(env, schema);
      AllocationOptions options = EquivalenceOptions(algorithm);
      options.checkpoint.directory = MakeTempDir();
      options.checkpoint.every = 1;
      IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                                 Allocator::Run(env, schema, &facts, options));
      stats_on = env.disk().stats();
      edb_on = DumpEdb(env, result);
    }
    EXPECT_EQ(stats_off.page_reads, stats_on.page_reads)
        << AlgorithmName(algorithm);
    ASSERT_EQ(edb_off.size(), edb_on.size()) << AlgorithmName(algorithm);
    EXPECT_EQ(std::memcmp(edb_off.data(), edb_on.data(), edb_off.size()), 0)
        << AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace iolap
