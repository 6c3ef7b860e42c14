// Empirical validation of the paper's I/O cost theorems. With the buffer
// pool much smaller than the data, measured page I/Os must track:
//   Theorem 6  (Independent): 7·T·(W·|C| + |I|)
//   Theorem 7  (Block):       3·T·(|S|·|C| + |I|)
//   Theorem 10 (Transitive):  2(|S||C|+|I|) + 5(|C|+|I|) + 3|L|(T+1)
// We assert two-sided bounds with generous slack (the pool caches some
// pages, and sorts take their fast path when segments fit the budget),
// plus the *relative* claims the experiments rest on.

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

struct RunOutcome {
  AllocationResult result;
  int64_t cell_pages;
  int64_t imprecise_pages;
};

RunOutcome RunAlloc(AlgorithmKind algorithm, int64_t buffer_pages, double epsilon,
               int max_iterations) {
  StorageEnv env(MakeTempDir(), buffer_pages);
  auto schema = MakeAutomotiveSchema();
  EXPECT_TRUE(schema.ok());
  DatasetSpec spec;
  spec.num_facts = 60'000;
  spec.seed = 42;
  auto facts = GenerateFacts(env, *schema, spec);
  EXPECT_TRUE(facts.ok());
  AllocationOptions options;
  options.algorithm = algorithm;
  options.epsilon = epsilon;
  options.max_iterations = max_iterations;
  auto result = Allocator::Run(env, *schema, &facts.value(), options);
  EXPECT_TRUE(result.ok()) << result.status();
  RunOutcome out{std::move(result).value(), 0, 0};
  out.cell_pages = (out.result.num_cells +
                    TypedFile<CellRecord>::kRecordsPerPage - 1) /
                   TypedFile<CellRecord>::kRecordsPerPage;
  out.imprecise_pages = (out.result.num_imprecise +
                         TypedFile<ImpreciseRecord>::kRecordsPerPage - 1) /
                        TypedFile<ImpreciseRecord>::kRecordsPerPage;
  return out;
}

constexpr int64_t kTinyBuffer = 24;  // pages; data is ~1000 pages

TEST(CostModelTest, BlockTracksTheorem7) {
  const int kIterations = 4;
  RunOutcome run = RunAlloc(AlgorithmKind::kBlock, kTinyBuffer, 0, kIterations);
  const int64_t S = run.result.num_groups;
  const int64_t predicted =
      3 * kIterations * (S * run.cell_pages + run.imprecise_pages);
  const int64_t measured = run.result.alloc_io.total();
  EXPECT_LT(measured, predicted * 2) << "S=" << S;
  EXPECT_GT(measured, predicted / 4) << "S=" << S;
}

TEST(CostModelTest, IndependentTracksTheorem6) {
  const int kIterations = 4;
  RunOutcome run =
      RunAlloc(AlgorithmKind::kIndependent, kTinyBuffer, 0, kIterations);
  const int64_t W = run.result.chain_width;
  ASSERT_GT(W, 1);
  const int64_t predicted =
      7 * kIterations * (W * run.cell_pages + run.imprecise_pages);
  const int64_t measured = run.result.alloc_io.total();
  EXPECT_LT(measured, predicted * 2) << "W=" << W;
  EXPECT_GT(measured, predicted / 4) << "W=" << W;
}

TEST(CostModelTest, TransitiveTracksTheorem10) {
  // Measured 1.05x (96 pages) and 1.15x (300 pages) of the prediction.
  for (int64_t buffer_pages : {int64_t{96}, int64_t{300}}) {
    RunOutcome run = RunAlloc(AlgorithmKind::kTransitive, buffer_pages, 0, 4);
    const int64_t S = run.result.num_groups;
    const int64_t C = run.cell_pages;
    const int64_t I = run.imprecise_pages;
    const int64_t L = run.result.components.large_component_pages;
    const int64_t T = run.result.components.max_component_iterations;
    const int64_t predicted = 2 * (S * C + I) + 5 * (C + I) + 3 * L * (T + 1);
    const int64_t measured = run.result.alloc_io.total();
    EXPECT_LT(measured, predicted * 6 / 5) << "pool " << buffer_pages;
    EXPECT_GT(measured, predicted * 9 / 10) << "pool " << buffer_pages;
  }
}

TEST(CostModelTest, IndependentCostsMoreThanBlockPerIteration) {
  const int kIterations = 3;
  RunOutcome block = RunAlloc(AlgorithmKind::kBlock, kTinyBuffer, 0, kIterations);
  RunOutcome independent =
      RunAlloc(AlgorithmKind::kIndependent, kTinyBuffer, 0, kIterations);
  // The experiments' core relative claim.
  EXPECT_GT(independent.result.alloc_io.total(),
            2 * block.result.alloc_io.total());
}

TEST(CostModelTest, TransitiveIoIsFlatInIterations) {
  // Theorem 10: with no large components, the I/O is independent of T.
  // Iterations vary via epsilon. Buffer chosen to fit the components but
  // not the dataset.
  RunOutcome few = RunAlloc(AlgorithmKind::kTransitive, 96, 0.1, 100);
  RunOutcome many = RunAlloc(AlgorithmKind::kTransitive, 96, 0.0005, 100);
  ASSERT_GT(many.result.components.max_component_iterations,
            few.result.components.max_component_iterations);
  EXPECT_EQ(many.result.components.num_large_components, 0);
  double ratio = static_cast<double>(many.result.alloc_io.total()) /
                 static_cast<double>(few.result.alloc_io.total());
  EXPECT_LT(ratio, 1.15) << few.result.alloc_io.total() << " -> "
                         << many.result.alloc_io.total();
}

TEST(CostModelTest, BlockIoGrowsLinearlyInIterations) {
  RunOutcome few = RunAlloc(AlgorithmKind::kBlock, kTinyBuffer, 0, 2);
  RunOutcome many = RunAlloc(AlgorithmKind::kBlock, kTinyBuffer, 0, 6);
  double ratio = static_cast<double>(many.result.alloc_io.total()) /
                 static_cast<double>(few.result.alloc_io.total());
  EXPECT_GT(ratio, 2.0);  // ~3x expected for 3x the iterations
  EXPECT_LT(ratio, 4.0);
  // The per-iteration trace exists and sums to the total.
  ASSERT_EQ(many.result.per_iteration.size(), 6u);
  int64_t sum = 0;
  for (const IterationStats& it : many.result.per_iteration) {
    sum += it.io.total();
  }
  EXPECT_EQ(sum, many.result.alloc_io.total());
}

TEST(CostModelTest, MoreGroupsMeansMoreCellScans) {
  // Shrinking the buffer raises |S| and with it Block's cell-scan I/O.
  RunOutcome small = RunAlloc(AlgorithmKind::kBlock, 12, 0, 3);
  RunOutcome large = RunAlloc(AlgorithmKind::kBlock, 512, 0, 3);
  EXPECT_GE(small.result.num_groups, large.result.num_groups);
  if (small.result.num_groups > large.result.num_groups) {
    EXPECT_GT(small.result.alloc_io.total(), large.result.alloc_io.total());
  }
}

}  // namespace
}  // namespace iolap
