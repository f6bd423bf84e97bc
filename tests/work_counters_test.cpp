// Pins the exact work counters of one fixed small open-data lake and query
// for every caller of exact verification (MATE, SCR, MCR, and MATE with a
// single-column key). A faster verifier must visit the same rows and make
// the same cell comparisons, so drift in pruning, filtering or comparison
// counting fails here.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/mcr.h"
#include "core/mate.h"
#include "index/index_builder.h"
#include "workload/scenarios.h"

namespace mate {
namespace {

struct PinnedStats {
  uint64_t candidate_tables;
  uint64_t tables_evaluated;
  uint64_t tables_pruned_rule1;
  uint64_t tables_pruned_rule2;
  uint64_t rows_checked;
  uint64_t rows_sent_to_verification;
  uint64_t rows_true_positive;
  uint64_t value_comparisons;
  int64_t top_joinability;
};

void ExpectPinned(const DiscoveryResult& result, const PinnedStats& want) {
  const DiscoveryStats& s = result.stats;
  EXPECT_EQ(s.candidate_tables, want.candidate_tables);
  EXPECT_EQ(s.tables_evaluated, want.tables_evaluated);
  EXPECT_EQ(s.tables_pruned_rule1, want.tables_pruned_rule1);
  EXPECT_EQ(s.tables_pruned_rule2, want.tables_pruned_rule2);
  EXPECT_EQ(s.rows_checked, want.rows_checked);
  EXPECT_EQ(s.rows_sent_to_verification, want.rows_sent_to_verification);
  EXPECT_EQ(s.rows_true_positive, want.rows_true_positive);
  EXPECT_EQ(s.value_comparisons, want.value_comparisons);
  EXPECT_EQ(result.JoinabilityAt(0), want.top_joinability);
}

class WorkCountersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.scale = 0.01;
    config.queries_per_set = 1;
    config.seed = 7;
    workload_ = new Workload(MakeOpenDataWorkload(config));
    auto index = BuildIndex(workload_->corpus, IndexBuildOptions{});
    ASSERT_TRUE(index.ok());
    index_ = index->release();
  }
  static void TearDownTestSuite() {
    delete index_;
    delete workload_;
    index_ = nullptr;
    workload_ = nullptr;
  }

  // The OD (10000) query: a two-column key over 74 rows. With k = 5 both
  // pruning rules fire, so the pins cover every counter.
  static const QueryCase& Query() {
    return workload_->query_sets[2].second.front();
  }
  static DiscoveryOptions Options() {
    DiscoveryOptions options;
    options.k = 5;
    return options;
  }

  static Workload* workload_;
  static InvertedIndex* index_;
};

Workload* WorkCountersTest::workload_ = nullptr;
InvertedIndex* WorkCountersTest::index_ = nullptr;

TEST_F(WorkCountersTest, MateCountersArePinned) {
  MateSearch mate(&workload_->corpus, index_);
  const DiscoveryResult result =
      mate.Discover(Query().query, Query().key_columns, Options());
  ExpectPinned(result, {60, 19, 41, 3, 1049, 959, 469, 136361, 44});
}

TEST_F(WorkCountersTest, ScrCountersArePinned) {
  MateSearch mate(&workload_->corpus, index_);
  DiscoveryOptions options = Options();
  options.use_row_filter = false;
  const DiscoveryResult result =
      mate.Discover(Query().query, Query().key_columns, options);
  ExpectPinned(result, {60, 19, 41, 10, 892, 892, 448, 296932, 44});
}

TEST_F(WorkCountersTest, McrCountersArePinned) {
  McrSearch mcr(&workload_->corpus, index_);
  const DiscoveryResult result =
      mcr.Discover(Query().query, Query().key_columns, Options());
  ExpectPinned(result, {56, 56, 0, 0, 1203, 1203, 541, 767467, 44});
}

TEST_F(WorkCountersTest, SingleColumnKeyCountersArePinned) {
  // m = 1 verifies only each PL item's own column.
  MateSearch mate(&workload_->corpus, index_);
  const DiscoveryResult result =
      mate.Discover(Query().query, {Query().key_columns.front()}, Options());
  ExpectPinned(result, {60, 56, 4, 0, 12693, 12693, 12693, 12693, 37});
}

}  // namespace
}  // namespace mate
