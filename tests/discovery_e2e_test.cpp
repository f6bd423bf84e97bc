// End-to-end agreement properties across systems and against brute force:
//   * MATE == SCR == MCR on top-k scores (they are all exact).
//   * MATE's reported joinability equals BruteForceJoinability per table.
//   * Planted tables are found with at least their planted joinability.
// Parameterized over hash family and hash size: the filter must never
// change results, only speed.

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/mcr.h"
#include "core/mate.h"
#include "index/index_builder.h"
#include "workload/generator.h"
#include "workload/query_gen.h"

namespace mate {
namespace {

struct E2eWorld {
  Corpus corpus;
  std::vector<QueryCase> queries;
};

E2eWorld MakeWorld(uint64_t seed) {
  E2eWorld world;
  Vocabulary vocab = Vocabulary::Generate(250, Vocabulary::Style::kMixed,
                                          seed ^ 0xABC);
  CorpusSpec spec;
  spec.num_tables = 30;
  spec.min_columns = 2;
  spec.max_columns = 5;
  spec.min_rows = 3;
  spec.max_rows = 12;
  spec.seed = seed;
  world.corpus = GenerateCorpus(spec, vocab);
  QuerySetSpec qspec;
  qspec.num_queries = 4;
  qspec.query_rows = 20;
  qspec.query_columns = 4;
  qspec.key_size = 2;
  qspec.planted_tables = 5;
  qspec.seed = seed + 1;
  world.queries = GenerateQueries(&world.corpus, vocab, qspec);
  return world;
}

class DiscoveryE2eTest
    : public testing::TestWithParam<std::tuple<HashFamily, size_t>> {};

TEST_P(DiscoveryE2eTest, SystemsAgreeAndMatchBruteForce) {
  auto [family, bits] = GetParam();
  E2eWorld world = MakeWorld(911);
  IndexBuildOptions options;
  options.hash_family = family;
  options.hash_bits = bits;
  auto index = BuildIndex(world.corpus, options);
  ASSERT_TRUE(index.ok());

  MateSearch mate(&world.corpus, index->get());
  McrSearch mcr(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 5;
  DiscoveryOptions scr_opts = dopts;  // SCR: no super-key row filter
  scr_opts.use_row_filter = false;

  for (const QueryCase& qc : world.queries) {
    DiscoveryResult rm = mate.Discover(qc.query, qc.key_columns, dopts);
    DiscoveryResult rs = mate.Discover(qc.query, qc.key_columns, scr_opts);
    DiscoveryResult rc = mcr.Discover(qc.query, qc.key_columns, dopts);

    ASSERT_EQ(rm.top_k.size(), rs.top_k.size());
    ASSERT_EQ(rm.top_k.size(), rc.top_k.size());
    for (size_t i = 0; i < rm.top_k.size(); ++i) {
      EXPECT_EQ(rm.top_k[i].table_id, rs.top_k[i].table_id) << i;
      EXPECT_EQ(rm.top_k[i].joinability, rs.top_k[i].joinability) << i;
      EXPECT_EQ(rm.top_k[i].table_id, rc.top_k[i].table_id) << i;
      EXPECT_EQ(rm.top_k[i].joinability, rc.top_k[i].joinability) << i;
    }

    // MATE's scores are exact: verify against brute force per table.
    for (const TableResult& tr : rm.top_k) {
      BruteForceResult brute = BruteForceJoinability(
          qc.query, qc.key_columns, world.corpus.table(tr.table_id));
      EXPECT_EQ(tr.joinability, brute.joinability)
          << "table " << tr.table_id;
    }
  }
}

std::string E2eName(
    const testing::TestParamInfo<std::tuple<HashFamily, size_t>>& info) {
  return std::string(HashFamilyName(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, DiscoveryE2eTest,
    testing::Combine(testing::ValuesIn(AllHashFamilies()),
                     testing::Values(size_t{128}, size_t{512})),
    E2eName);

TEST(DiscoveryE2eRankingTest, TopKIsGloballyCorrect) {
  // MATE's top-k must equal the brute-force ranking over *all* corpus
  // tables (scores compared; ties allowed to differ in id only if scores
  // tie — our tie-break makes even ids deterministic).
  E2eWorld world = MakeWorld(313);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 6;

  for (const QueryCase& qc : world.queries) {
    DiscoveryResult result = mate.Discover(qc.query, qc.key_columns, dopts);

    std::vector<std::pair<int64_t, TableId>> all;  // (-j, id)
    for (TableId t = 0; t < world.corpus.NumTables(); ++t) {
      int64_t j = BruteForceJoinability(qc.query, qc.key_columns,
                                        world.corpus.table(t))
                      .joinability;
      if (j > 0) all.emplace_back(-j, t);
    }
    std::sort(all.begin(), all.end());
    size_t expected = std::min<size_t>(all.size(), 6);
    ASSERT_EQ(result.top_k.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(result.top_k[i].joinability, -all[i].first) << i;
      EXPECT_EQ(result.top_k[i].table_id, all[i].second) << i;
    }
  }
}

TEST(DiscoveryE2eRankingTest, PlantedTablesAreDiscovered) {
  E2eWorld world = MakeWorld(555);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 5;
  for (const QueryCase& qc : world.queries) {
    ASSERT_FALSE(qc.planted.empty());
    DiscoveryResult result = mate.Discover(qc.query, qc.key_columns, dopts);
    bool found = false;
    for (const TableResult& tr : result.top_k) {
      if (tr.table_id == qc.planted[0].first) {
        found = true;
        EXPECT_GE(tr.joinability,
                  static_cast<int64_t>(qc.planted[0].second));
      }
    }
    EXPECT_TRUE(found) << "most-planted table missing from top-k";
  }
}

TEST(DiscoveryE2eRankingTest, ThreeColumnKeysMatchBruteForce) {
  Vocabulary vocab = Vocabulary::Generate(150, Vocabulary::Style::kMixed, 77);
  CorpusSpec spec;
  spec.num_tables = 20;
  spec.min_columns = 3;
  spec.max_columns = 6;
  spec.min_rows = 3;
  spec.max_rows = 10;
  spec.seed = 78;
  Corpus corpus = GenerateCorpus(spec, vocab);
  QuerySetSpec qspec;
  qspec.num_queries = 3;
  qspec.query_rows = 15;
  qspec.query_columns = 5;
  qspec.key_size = 3;
  qspec.planted_tables = 4;
  qspec.seed = 79;
  std::vector<QueryCase> queries = GenerateQueries(&corpus, vocab, qspec);

  auto index = BuildIndex(corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 4;
  for (const QueryCase& qc : queries) {
    DiscoveryResult result = mate.Discover(qc.query, qc.key_columns, dopts);
    for (const TableResult& tr : result.top_k) {
      EXPECT_EQ(tr.joinability,
                BruteForceJoinability(qc.query, qc.key_columns,
                                      corpus.table(tr.table_id))
                    .joinability);
    }
  }
}

TEST(DiscoveryE2eRankingTest, DeletedRowsAreInvisibleToDiscovery) {
  E2eWorld world = MakeWorld(404);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());

  // Tombstone a third of the rows of every table, via the §5.4 update path.
  Rng rng(405);
  for (TableId t = 0; t < world.corpus.NumTables(); ++t) {
    Table* table = world.corpus.mutable_table(t);
    for (RowId r = 0; r < table->NumRows(); ++r) {
      if (table->NumLiveRows() > 1 && rng.Bernoulli(0.33)) {
        ASSERT_TRUE((*index)->DeleteRow(world.corpus, t, r).ok());
        ASSERT_TRUE(table->DeleteRow(r).ok());
      }
    }
  }

  MateSearch mate(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 5;
  for (const QueryCase& qc : world.queries) {
    DiscoveryResult result = mate.Discover(qc.query, qc.key_columns, dopts);
    for (const TableResult& tr : result.top_k) {
      // Brute force skips tombstoned rows, so agreement proves the index
      // no longer surfaces them.
      EXPECT_EQ(tr.joinability,
                BruteForceJoinability(qc.query, qc.key_columns,
                                      world.corpus.table(tr.table_id))
                    .joinability);
    }
  }
}

TEST(DiscoveryE2eRankingTest, MaintainedIndexDiscoversNewTables) {
  E2eWorld world = MakeWorld(606);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  const QueryCase& qc = world.queries[0];

  // Insert a fresh table holding every query combo: it must become top-1.
  Table super("super_joinable");
  for (size_t c = 0; c < qc.key_columns.size() + 1; ++c) {
    super.AddColumn("c" + std::to_string(c));
  }
  auto combos = ExtractKeyCombos(qc.query, qc.key_columns);
  for (const auto& combo : combos) {
    std::vector<std::string> cells(combo);
    cells.push_back("payload");
    (void)super.AppendRow(std::move(cells));
  }
  TableId new_id = world.corpus.AddTable(std::move(super));
  ASSERT_TRUE((*index)->InsertTable(world.corpus, new_id).ok());

  MateSearch mate(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 3;
  DiscoveryResult result = mate.Discover(qc.query, qc.key_columns, dopts);
  ASSERT_FALSE(result.top_k.empty());
  EXPECT_EQ(result.top_k[0].table_id, new_id);
  EXPECT_EQ(result.top_k[0].joinability,
            static_cast<int64_t>(combos.size()));
}

TEST(DiscoveryE2eRankingTest, DeterministicAcrossRuns) {
  E2eWorld world = MakeWorld(777);
  auto index = BuildIndex(world.corpus, IndexBuildOptions{});
  ASSERT_TRUE(index.ok());
  MateSearch mate(&world.corpus, index->get());
  DiscoveryOptions dopts;
  dopts.k = 4;
  for (const QueryCase& qc : world.queries) {
    DiscoveryResult a = mate.Discover(qc.query, qc.key_columns, dopts);
    DiscoveryResult b = mate.Discover(qc.query, qc.key_columns, dopts);
    ASSERT_EQ(a.top_k.size(), b.top_k.size());
    for (size_t i = 0; i < a.top_k.size(); ++i) {
      EXPECT_EQ(a.top_k[i].table_id, b.top_k[i].table_id);
      EXPECT_EQ(a.top_k[i].joinability, b.top_k[i].joinability);
    }
  }
}

}  // namespace
}  // namespace mate
