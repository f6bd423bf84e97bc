#include "baselines/mcr.h"

#include <gtest/gtest.h>

#include "core/mate.h"
#include "index/index_builder.h"

namespace mate {
namespace {

Table MakeQueryD() {
  Table d("d");
  d.AddColumn("F");
  d.AddColumn("L");
  d.AddColumn("C");
  (void)d.AppendRow({"Muhammad", "Lee", "US"});
  (void)d.AppendRow({"Ansel", "Adams", "UK"});
  (void)d.AppendRow({"Ansel", "Adams", "US"});
  (void)d.AppendRow({"Muhammad", "Lee", "Germany"});
  (void)d.AppendRow({"Helmut", "Newton", "Germany"});
  return d;
}

Corpus MakeCorpus() {
  Corpus corpus;
  Table t1("T1");
  t1.AddColumn("Vorname");
  t1.AddColumn("Nachname");
  t1.AddColumn("Land");
  t1.AddColumn("Besetzung");
  (void)t1.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t1.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t1.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t1.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t1.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t1.AppendRow({"Adam", "Sandler", "US", "Actor"});
  corpus.AddTable(std::move(t1));
  Table t2("T2");
  t2.AddColumn("x");
  t2.AddColumn("y");
  t2.AddColumn("z");
  (void)t2.AppendRow({"Muhammad", "Lee", "US"});
  (void)t2.AppendRow({"a", "b", "c"});
  corpus.AddTable(std::move(t2));
  return corpus;
}

std::unique_ptr<InvertedIndex> Build(const Corpus& corpus) {
  auto index = BuildIndex(corpus, IndexBuildOptions{});
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

// The SCR baseline (§7.1.1): Algorithm 1 without super-key row filtering.
DiscoveryResult RunScr(const Corpus& corpus, const InvertedIndex& index,
                       const Table& query,
                       const std::vector<ColumnId>& key_columns,
                       DiscoveryOptions options) {
  options.use_row_filter = false;
  return MateSearch(&corpus, &index).Discover(query, key_columns, options);
}

TEST(McrTest, FindsTheFigure1Result) {
  Corpus corpus = MakeCorpus();
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  DiscoveryOptions options;
  options.k = 2;
  DiscoveryResult result = mcr.Discover(MakeQueryD(), {0, 1, 2}, options);
  ASSERT_EQ(result.top_k.size(), 2u);
  EXPECT_EQ(result.top_k[0].table_id, 0u);
  EXPECT_EQ(result.top_k[0].joinability, 5);
  EXPECT_EQ(result.top_k[1].table_id, 1u);
  EXPECT_EQ(result.top_k[1].joinability, 1);
}

TEST(McrTest, FetchesAllQueryColumns) {
  // MCR's defining cost: it fetches PLs for every key column, so it must
  // fetch at least as many PL items as SCR (init column only).
  Corpus corpus = MakeCorpus();
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  DiscoveryOptions options;
  options.k = 2;
  DiscoveryResult m = mcr.Discover(MakeQueryD(), {0, 1, 2}, options);
  DiscoveryResult s =
      RunScr(corpus, *index, MakeQueryD(), {0, 1, 2}, options);
  EXPECT_GT(m.stats.pl_items_fetched, s.stats.pl_items_fetched);
}

TEST(McrTest, AgreesWithScrOnScores) {
  Corpus corpus = MakeCorpus();
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  DiscoveryOptions options;
  options.k = 3;
  DiscoveryResult m = mcr.Discover(MakeQueryD(), {0, 1, 2}, options);
  DiscoveryResult s =
      RunScr(corpus, *index, MakeQueryD(), {0, 1, 2}, options);
  ASSERT_EQ(m.top_k.size(), s.top_k.size());
  for (size_t i = 0; i < m.top_k.size(); ++i) {
    EXPECT_EQ(m.top_k[i].table_id, s.top_k[i].table_id);
    EXPECT_EQ(m.top_k[i].joinability, s.top_k[i].joinability);
  }
}

TEST(McrTest, IntersectionPrunesSingleColumnRows) {
  // Rows hit by only one key column never reach verification.
  Corpus corpus;
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"x", "nope"});   // only column-0 value
  (void)t.AppendRow({"nope", "y"});   // only column-1 value
  (void)t.AppendRow({"x", "y"});      // both -> candidate
  corpus.AddTable(std::move(t));
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  Table q("q");
  q.AddColumn("k1");
  q.AddColumn("k2");
  (void)q.AppendRow({"x", "y"});
  DiscoveryOptions options;
  DiscoveryResult result = mcr.Discover(q, {0, 1}, options);
  EXPECT_EQ(result.stats.rows_sent_to_verification, 1u);
  ASSERT_EQ(result.top_k.size(), 1u);
  EXPECT_EQ(result.top_k[0].joinability, 1);
}

TEST(McrTest, CrossColumnValuesStillIntersect) {
  // A row can contain both key values in *swapped* columns; intersection
  // keeps it (each value hits a different key position) and verification
  // finds the swapped mapping.
  Corpus corpus;
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"y", "x"});
  corpus.AddTable(std::move(t));
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  Table q("q");
  q.AddColumn("k1");
  q.AddColumn("k2");
  (void)q.AppendRow({"x", "y"});
  DiscoveryOptions options;
  DiscoveryResult result = mcr.Discover(q, {0, 1}, options);
  ASSERT_EQ(result.top_k.size(), 1u);
  EXPECT_EQ(result.top_k[0].joinability, 1);
  EXPECT_EQ(result.top_k[0].best_mapping, (std::vector<ColumnId>{1, 0}));
}

TEST(McrTest, ExcludeTables) {
  Corpus corpus = MakeCorpus();
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  DiscoveryOptions options;
  options.k = 2;
  options.exclude_tables = {0};
  DiscoveryResult result = mcr.Discover(MakeQueryD(), {0, 1, 2}, options);
  ASSERT_EQ(result.top_k.size(), 1u);
  EXPECT_EQ(result.top_k[0].table_id, 1u);
}

TEST(McrTest, EmptyQueryHandledGracefully) {
  Corpus corpus = MakeCorpus();
  auto index = Build(corpus);
  McrSearch mcr(&corpus, index.get());
  Table q("q");
  q.AddColumn("a");
  DiscoveryOptions options;
  EXPECT_TRUE(mcr.Discover(q, {}, options).top_k.empty());
  EXPECT_TRUE(mcr.Discover(q, {0}, options).top_k.empty());
}

}  // namespace
}  // namespace mate
