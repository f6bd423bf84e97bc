// SCR — Single-Column Retrieval (§7.1.1): Algorithm 1 with super-key row
// filtering off, so every fetched candidate row is verified by exact value
// comparison. The bench runners define it as MateSearch with
// DiscoveryOptions::use_row_filter = false.

#include <gtest/gtest.h>

#include "bench_util/runner.h"
#include "core/mate.h"
#include "core/session.h"
#include "index/index_builder.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace mate {
namespace {

struct World {
  Corpus corpus;
  std::vector<QueryCase> queries;
  std::unique_ptr<InvertedIndex> index;
};

World MakeWorld(uint64_t seed) {
  World world;
  Vocabulary vocab =
      Vocabulary::Generate(400, Vocabulary::Style::kMixed, seed);
  CorpusSpec spec;
  spec.num_tables = 40;
  spec.seed = seed + 1;
  world.corpus = GenerateCorpus(spec, vocab);
  QuerySetSpec qspec;
  qspec.num_queries = 3;
  qspec.query_rows = 40;
  qspec.key_size = 2;
  qspec.planted_tables = 6;
  qspec.seed = seed + 2;
  world.queries = GenerateQueries(&world.corpus, vocab, qspec);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  EXPECT_TRUE(index.ok());
  world.index = std::move(*index);
  return world;
}

DiscoveryResult RunScr(const World& world, const QueryCase& qc,
                       DiscoveryOptions options) {
  options.use_row_filter = false;
  return MateSearch(&world.corpus, world.index.get())
      .Discover(qc.query, qc.key_columns, options);
}

TEST(ScrTest, RowFilterFlagIsForcedOff) {
  // The bench runner's SCR system starts from default options (row filter
  // on) and must switch the filter off itself.
  World world = MakeWorld(11);
  const std::vector<QueryCase> queries = std::move(world.queries);
  SessionOptions options;
  options.corpus = std::move(world.corpus);
  options.index = std::move(world.index);
  options.num_threads = 2;
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto scr = RunSystem(SystemKind::kScr, *session, nullptr, queries, 5, "scr");
  ASSERT_TRUE(scr.ok()) << scr.status().ToString();
  // SCR sends every checked row to verification — no super-key pruning.
  EXPECT_GT(scr->rows_checked, 0u);
  EXPECT_EQ(scr->rows_checked, scr->rows_sent_to_verification);
  auto mate = RunSystem(SystemKind::kMate, *session, nullptr, queries, 5,
                        "mate");
  ASSERT_TRUE(mate.ok()) << mate.status().ToString();
  EXPECT_LE(mate->rows_sent_to_verification, scr->rows_sent_to_verification);
  EXPECT_EQ(mate->topk_score_sum, scr->topk_score_sum);
}

TEST(ScrTest, VerifiesAtLeastAsManyRowsAsMate) {
  World world = MakeWorld(13);
  MateSearch mate(&world.corpus, world.index.get());
  DiscoveryOptions options;
  options.k = 5;
  for (const QueryCase& qc : world.queries) {
    DiscoveryResult s = RunScr(world, qc, options);
    DiscoveryResult m = mate.Discover(qc.query, qc.key_columns, options);
    EXPECT_GE(s.stats.rows_sent_to_verification,
              m.stats.rows_sent_to_verification);
    EXPECT_GE(s.stats.value_comparisons, m.stats.value_comparisons);
    // And identical answers.
    ASSERT_EQ(s.top_k.size(), m.top_k.size());
    for (size_t i = 0; i < s.top_k.size(); ++i) {
      EXPECT_EQ(s.top_k[i].table_id, m.top_k[i].table_id);
      EXPECT_EQ(s.top_k[i].joinability, m.top_k[i].joinability);
    }
  }
}

TEST(ScrTest, TableFiltersStillPrune) {
  // SCR keeps Algorithm 1's table filters (§7.1.1): with them disabled it
  // must evaluate at least as many tables.
  World world = MakeWorld(17);
  DiscoveryOptions with, without;
  with.k = without.k = 2;
  without.use_table_filters = false;
  uint64_t evaluated_with = 0, evaluated_without = 0;
  for (const QueryCase& qc : world.queries) {
    evaluated_with += RunScr(world, qc, with).stats.tables_evaluated;
    evaluated_without += RunScr(world, qc, without).stats.tables_evaluated;
  }
  EXPECT_LE(evaluated_with, evaluated_without);
}

TEST(ScrTest, PrecisionIsTrueFpRate) {
  // With no filter, SCR's precision is the raw TP share of fetched rows —
  // the denominator the paper's FP-rate discussion uses.
  World world = MakeWorld(19);
  DiscoveryOptions options;
  options.k = 5;
  DiscoveryResult result = RunScr(world, world.queries[0], options);
  const DiscoveryStats& s = result.stats;
  EXPECT_EQ(s.rows_true_positive + s.FalsePositiveRows(),
            s.rows_sent_to_verification);
  EXPECT_LE(s.Precision(), 1.0);
}

}  // namespace
}  // namespace mate
