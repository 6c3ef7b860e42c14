#include <gtest/gtest.h>

#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/query.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

/// Regression for the tombstone invariant (Definition 4 / CLAUDE.md):
/// weight-0 rows with fact_id = -1 are maintenance tombstones and every EDB
/// reader must skip them. An EDB interleaved with tombstones must answer
/// every query exactly like its compacted (tombstone-free) twin.
class QueryTombstoneTest : public ::testing::Test {
 protected:
  QueryTombstoneTest() : env_(MakeTempDir(), 64) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
    IOLAP_ASSERT_OK_AND_ASSIGN(facts_, MakePaperExampleFacts(env_, schema_));
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    IOLAP_ASSERT_OK_AND_ASSIGN(result_,
                               Allocator::Run(env_, schema_, &facts_, options));

    // Build the tombstoned twin: every live row of the clean EDB, with a
    // tombstone before each one (carrying the same leaf, so a reader that
    // failed to skip it would attribute it to a real cell) and one trailing
    // tombstone.
    IOLAP_ASSERT_OK_AND_ASSIGN(
        tombstoned_, TypedFile<EdbRecord>::Create(env_.disk(), "edb_tomb"));
    auto appender = tombstoned_.MakeAppender(env_.pool());
    auto cursor = result_.edb.Scan(env_.pool());
    EdbRecord rec;
    EdbRecord tomb{};
    tomb.fact_id = -1;
    tomb.weight = 0;
    tomb.measure = 0;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&rec));
      for (int d = 0; d < kMaxDims; ++d) tomb.leaf[d] = rec.leaf[d];
      IOLAP_ASSERT_OK(appender.Append(tomb));
      IOLAP_ASSERT_OK(appender.Append(rec));
    }
    IOLAP_ASSERT_OK(appender.Append(tomb));
    appender.Close();
    ASSERT_GT(tombstoned_.size(), result_.edb.size());
  }

  StorageEnv env_;
  StarSchema schema_;
  TypedFile<FactRecord> facts_;
  AllocationResult result_;
  TypedFile<EdbRecord> tombstoned_;
};

TEST_F(QueryTombstoneTest, AggregateMatchesCompacted) {
  QueryEngine clean(&env_, &schema_, &result_.edb);
  QueryEngine dirty(&env_, &schema_, &tombstoned_);
  std::vector<QueryRegion> regions = {QueryRegion::All()};
  for (NodeId node : schema_.dim(0).nodes_at_level(1)) {
    regions.push_back(QueryRegion::All().With(0, node));
  }
  for (const QueryRegion& region : regions) {
    for (AggregateFunc func : {AggregateFunc::kSum, AggregateFunc::kCount,
                               AggregateFunc::kAverage}) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult a,
                                 clean.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult b,
                                 dirty.Aggregate(region, func));
      EXPECT_DOUBLE_EQ(a.value, b.value);
      EXPECT_DOUBLE_EQ(a.sum, b.sum);
      EXPECT_DOUBLE_EQ(a.count, b.count);
    }
  }
}

TEST_F(QueryTombstoneTest, RollUpMatchesCompacted) {
  QueryEngine clean(&env_, &schema_, &result_.edb);
  QueryEngine dirty(&env_, &schema_, &tombstoned_);
  for (int level = 1; level <= schema_.dim(0).num_levels(); ++level) {
    IOLAP_ASSERT_OK_AND_ASSIGN(
        auto a, clean.RollUp(QueryRegion::All(), 0, level,
                             AggregateFunc::kSum));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        auto b, dirty.RollUp(QueryRegion::All(), 0, level,
                             AggregateFunc::kSum));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
      EXPECT_DOUBLE_EQ(a[i].count, b[i].count);
    }
  }
}

TEST_F(QueryTombstoneTest, FactsInMatchesCompacted) {
  QueryEngine clean(&env_, &schema_, &result_.edb);
  QueryEngine dirty(&env_, &schema_, &tombstoned_);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto a, clean.FactsIn(QueryRegion::All()));
  IOLAP_ASSERT_OK_AND_ASSIGN(auto b, dirty.FactsIn(QueryRegion::All()));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fact_id, b[i].fact_id);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
  }
  for (const EdbRecord& rec : b) {
    EXPECT_FALSE(rec.IsTombstone());
  }
}

TEST_F(QueryTombstoneTest, CompletionsOfMatchesCompacted) {
  QueryEngine clean(&env_, &schema_, &result_.edb);
  QueryEngine dirty(&env_, &schema_, &tombstoned_);
  for (FactId id = 1; id <= 14; ++id) {
    IOLAP_ASSERT_OK_AND_ASSIGN(auto a, clean.CompletionsOf(id));
    IOLAP_ASSERT_OK_AND_ASSIGN(auto b, dirty.CompletionsOf(id));
    ASSERT_EQ(a.size(), b.size()) << "fact " << id;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].fact_id, b[i].fact_id);
      EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST_F(QueryTombstoneTest, CompletionsOfRejectsNegativeFactId) {
  QueryEngine dirty(&env_, &schema_, &tombstoned_);
  // fact_id = -1 must not enumerate tombstones as if they were completions.
  Result<std::vector<EdbRecord>> r = dirty.CompletionsOf(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dirty.CompletionsOf(-7).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace iolap
