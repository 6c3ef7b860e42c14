// Failure injection: every layer built on the DiskManager must surface
// injected I/O errors as Status (never crash, never silently corrupt), and
// recover cleanly once the fault is removed.

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "storage/external_sort.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

struct Rec {
  int64_t key;
  int64_t pad;
};

// The sorter's comparators carry a normalized key; the sign flip makes
// unsigned prefix order match signed key order.
struct RecLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
  uint64_t KeyPrefix(const Rec& a) const {
    return static_cast<uint64_t>(a.key) ^ (uint64_t{1} << 63);
  }
};

TEST(FaultInjectionTest, ReadFaultSurfacesThroughBufferPool) {
  StorageEnv env(MakeTempDir(), 4);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, TypedFile<Rec>::Create(env.disk(), "t"));
  for (int i = 0; i < 1000; ++i) {
    IOLAP_ASSERT_OK(file.Append(env.pool(), Rec{i, 0}));
  }
  IOLAP_ASSERT_OK(env.pool().EvictFile(file.file_id()));

  env.disk().SetFaultInjector([](char op, FileId, PageId page) {
    if (op == 'r' && page == 2) return Status::IoError("injected read fault");
    return Status::Ok();
  });
  Result<Rec> r = file.Get(env.pool(), 2 * TypedFile<Rec>::kRecordsPerPage);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  // Other pages still work, and the failed frame was not leaked.
  IOLAP_ASSERT_OK_AND_ASSIGN(Rec ok, file.Get(env.pool(), 0));
  EXPECT_EQ(ok.key, 0);
  env.disk().SetFaultInjector(nullptr);
  IOLAP_ASSERT_OK_AND_ASSIGN(Rec healed,
                             file.Get(env.pool(), 2 * TypedFile<Rec>::kRecordsPerPage));
  EXPECT_EQ(healed.key, 2 * TypedFile<Rec>::kRecordsPerPage);
}

TEST(FaultInjectionTest, WriteFaultSurfacesOnEviction) {
  StorageEnv env(MakeTempDir(), 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, TypedFile<Rec>::Create(env.disk(), "t"));
  for (int i = 0; i < 600; ++i) {
    IOLAP_ASSERT_OK(file.Append(env.pool(), Rec{i, 0}));
  }
  // Dirty page 0, then fail all writes: the eviction forced by reading
  // other pages must propagate the error.
  IOLAP_ASSERT_OK(file.Put(env.pool(), 0, Rec{-1, 0}));
  env.disk().SetFaultInjector([](char op, FileId, PageId) {
    return op == 'w' ? Status::IoError("injected write fault") : Status::Ok();
  });
  Status flush = env.pool().FlushAll();
  EXPECT_EQ(flush.code(), StatusCode::kIoError);
  env.disk().SetFaultInjector(nullptr);
  IOLAP_EXPECT_OK(env.pool().FlushAll());
  IOLAP_ASSERT_OK_AND_ASSIGN(Rec r, file.Get(env.pool(), 0));
  EXPECT_EQ(r.key, -1);
}

TEST(FaultInjectionTest, ExternalSortPropagatesFaults) {
  StorageEnv env(MakeTempDir(), 8);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, TypedFile<Rec>::Create(env.disk(), "t"));
  for (int i = 0; i < 5000; ++i) {
    IOLAP_ASSERT_OK(file.Append(env.pool(), Rec{5000 - i, 0}));
  }
  IOLAP_ASSERT_OK(env.pool().FlushAll());
  int countdown = 20;
  env.disk().SetFaultInjector([&](char, FileId, PageId) {
    return --countdown <= 0 ? Status::IoError("injected sort fault")
                            : Status::Ok();
  });
  ExternalSorter<Rec> sorter(&env.disk(), &env.pool(), 4);
  Status st = sorter.Sort(&file, RecLess{});
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // Clean retry succeeds.
  env.disk().SetFaultInjector(nullptr);
  IOLAP_ASSERT_OK(sorter.Sort(&file, RecLess{}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Rec first, file.Get(env.pool(), 0));
  EXPECT_EQ(first.key, 1);
}

TEST(FaultInjectionTest, AllocatorSurfacesMidRunFaults) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  for (int failure_point : {50, 500, 5000}) {
    StorageEnv env(MakeTempDir(), 16);
    DatasetSpec spec;
    spec.num_facts = 5000;
    spec.seed = 3;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    IOLAP_ASSERT_OK(env.pool().FlushAll());
    int countdown = failure_point;
    env.disk().SetFaultInjector([&](char, FileId, PageId) {
      return --countdown <= 0 ? Status::IoError("injected fault")
                              : Status::Ok();
    });
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kTransitive;
    Result<AllocationResult> result =
        Allocator::Run(env, schema, &facts, options);
    if (countdown <= 0) {
      // The fault fired mid-run: it must be surfaced, not swallowed.
      ASSERT_FALSE(result.ok()) << "failure point " << failure_point;
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    } else {
      // The run finished under the fault threshold: it must be clean.
      EXPECT_TRUE(result.ok()) << result.status();
    }
  }
}

TEST(FaultInjectionTest, CleanRunAfterFaultyRun) {
  // A failed run must not poison the environment for a subsequent run in
  // the same process (fresh env, same schema objects).
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  {
    StorageEnv env(MakeTempDir(), 8);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
    int countdown = 3;
    env.disk().SetFaultInjector([&](char, FileId, PageId) {
      return --countdown <= 0 ? Status::IoError("boom") : Status::Ok();
    });
    AllocationOptions options;
    EXPECT_FALSE(Allocator::Run(env, schema, &facts, options).ok());
  }
  StorageEnv env(MakeTempDir(), 8);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EXPECT_EQ(result.edb.size(), 17);
}

}  // namespace
}  // namespace iolap
