#include "core/joinability.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "index/index_builder.h"
#include "util/rng.h"
#include "workload/vocabulary.h"

namespace mate {
namespace {

// The paper's Figure 1 tables.
Table MakeQueryD() {
  Table d("d");
  d.AddColumn("F. Name");
  d.AddColumn("L. Name");
  d.AddColumn("Country");
  d.AddColumn("Salary");
  (void)d.AppendRow({"Muhammad", "Lee", "US", "60k"});
  (void)d.AppendRow({"Ansel", "Adams", "UK", "50k"});
  (void)d.AppendRow({"Ansel", "Adams", "US", "400k"});
  (void)d.AppendRow({"Muhammad", "Lee", "Germany", "90k"});
  (void)d.AppendRow({"Helmut", "Newton", "Germany", "300k"});
  return d;
}

Table MakeCandidateT1() {
  Table t("T1");
  t.AddColumn("Vorname");
  t.AddColumn("Nachname");
  t.AddColumn("Land");
  t.AddColumn("Besetzung");
  (void)t.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t.AppendRow({"Adam", "Sandler", "US", "Actor"});
  return t;
}

// Tables indexed for posting-list verification (table id = order added).
struct IndexedLake {
  explicit IndexedLake(Table table) { Add(std::move(table)); }

  // Adds a table and rebuilds the index.
  void Add(Table table) {
    corpus.AddTable(std::move(table));
    auto built = BuildIndex(corpus, IndexBuildOptions{});
    EXPECT_TRUE(built.ok());
    index = std::move(*built);
  }

  // Posting lists of `combo`'s values, in combo order.
  std::vector<const PostingList*> Lists(
      const std::vector<std::string>& combo) const {
    std::vector<const PostingList*> lists;
    for (const std::string& v : combo) lists.push_back(index->Lookup(v));
    return lists;
  }

  Corpus corpus;
  std::unique_ptr<InvertedIndex> index;
};

// Verification of `combo` (as combo `combo_id`) in row `row` of table `t`.
bool VerifyWith(RowVerifier* verifier, const IndexedLake& lake, TableId t,
                RowId row, const std::vector<std::string>& combo,
                uint32_t combo_id, ColumnId fixed_column,
                size_t fixed_position, MappingAccumulator* acc,
                uint64_t* value_comparisons) {
  const std::vector<const PostingList*> lists = lake.Lists(combo);
  return verifier->VerifyCombo(lists, combo_id, t, row,
                               lake.corpus.table(t).NumColumns(),
                               fixed_column, fixed_position, acc,
                               value_comparisons);
}

// One-shot verification of `combo` (as combo 0) in row `row` of table 0.
bool VerifyComboInRow(const IndexedLake& lake, RowId row,
                      const std::vector<std::string>& combo,
                      ColumnId fixed_column, size_t fixed_position,
                      MappingAccumulator* acc, uint64_t* value_comparisons) {
  RowVerifier verifier;
  return VerifyWith(&verifier, lake, 0, row, combo, 0, fixed_column,
                    fixed_position, acc, value_comparisons);
}

TEST(ExtractKeyCombosTest, DistinctNormalizedCombos) {
  Table d = MakeQueryD();
  auto combos = ExtractKeyCombos(d, {0, 1, 2});
  // All 5 rows have distinct (F,L,Country) combos.
  EXPECT_EQ(combos.size(), 5u);
  EXPECT_EQ(combos[0], (std::vector<std::string>{"muhammad", "lee", "us"}));
}

TEST(ExtractKeyCombosTest, DeduplicatesAndSkipsEmpty) {
  Table t("q");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"X", "y"});
  (void)t.AppendRow({"x ", "Y"});   // duplicate after normalization
  (void)t.AppendRow({"", "z"});     // empty key value -> dropped
  (void)t.AppendRow({"w", "  "});   // empty after trim -> dropped
  auto combos = ExtractKeyCombos(t, {0, 1});
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_EQ(combos[0], (std::vector<std::string>{"x", "y"}));
}

TEST(ExtractKeyCombosTest, SkipsDeletedRows) {
  Table t("q");
  t.AddColumn("a");
  (void)t.AppendRow({"one"});
  (void)t.AppendRow({"two"});
  ASSERT_TRUE(t.DeleteRow(0).ok());
  auto combos = ExtractKeyCombos(t, {0});
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_EQ(combos[0][0], "two");
}

TEST(ExtractKeyCombosTest, SeparatorBytesCannotMergeCombos) {
  // Values may hold any byte, so the combo set key must not depend on a
  // separator: joined with '\x1F', these two combos would share one key.
  Table t("q");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"x\x1Fy", "z"});
  (void)t.AppendRow({"x", "y\x1Fz"});
  auto combos = ExtractKeyCombos(t, {0, 1});
  ASSERT_EQ(combos.size(), 2u);
  EXPECT_EQ(combos[1], (std::vector<std::string>{"x", "y\x1Fz"}));
}

TEST(BruteForceTest, Figure1GivesJoinabilityFive) {
  // §2: the best mapping (F->Vorname, L->Nachname, Country->Land) yields 5.
  BruteForceResult result =
      BruteForceJoinability(MakeQueryD(), {0, 1, 2}, MakeCandidateT1());
  EXPECT_EQ(result.joinability, 5);
  EXPECT_EQ(result.best_mapping, (std::vector<ColumnId>{0, 1, 2}));
}

TEST(BruteForceTest, SwappedMappingGivesZero) {
  // §2: mapping F->Nachname, L->Vorname, Country->Land yields 0 — so a
  // query with swapped columns must still find 5 via the swapped mapping.
  Table d = MakeQueryD();
  BruteForceResult result =
      BruteForceJoinability(d, {1, 0, 2}, MakeCandidateT1());
  EXPECT_EQ(result.joinability, 5);
  EXPECT_EQ(result.best_mapping, (std::vector<ColumnId>{1, 0, 2}));
}

TEST(BruteForceTest, KeyWiderThanCandidateIsZero) {
  Table narrow("n");
  narrow.AddColumn("only");
  (void)narrow.AppendRow({"muhammad"});
  BruteForceResult result =
      BruteForceJoinability(MakeQueryD(), {0, 1, 2}, narrow);
  EXPECT_EQ(result.joinability, 0);
}

TEST(BruteForceTest, SetSemanticsCountDistinctCombos) {
  Table q("q");
  q.AddColumn("a");
  q.AddColumn("b");
  (void)q.AppendRow({"x", "y"});
  Table cand("c");
  cand.AddColumn("c1");
  cand.AddColumn("c2");
  // The same combo appears in 3 candidate rows: still j = 1 (Eq. 1 is a set
  // intersection of projections).
  (void)cand.AppendRow({"x", "y"});
  (void)cand.AppendRow({"x", "y"});
  (void)cand.AppendRow({"x", "y"});
  EXPECT_EQ(BruteForceJoinability(q, {0, 1}, cand).joinability, 1);
}

TEST(BruteForceTest, SeparatorBytesCannotForgeAMatch) {
  Table q("q");
  q.AddColumn("a");
  q.AddColumn("b");
  (void)q.AppendRow({"x\x1Fy", "z"});
  Table cand("c");
  cand.AddColumn("c1");
  cand.AddColumn("c2");
  (void)cand.AppendRow({"x", "y\x1Fz"});
  EXPECT_EQ(BruteForceJoinability(q, {0, 1}, cand).joinability, 0);
}

TEST(MappingAccumulatorTest, MaxOverMappings) {
  MappingAccumulator acc;
  acc.AddMatch({0, 1}, 0);
  acc.AddMatch({0, 1}, 1);
  acc.AddMatch({0, 1}, 1);  // duplicate combo: still one
  acc.AddMatch({2, 3}, 5);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1}));
  acc.Clear();
  EXPECT_EQ(acc.MaxJoinability(), 0);
  EXPECT_TRUE(acc.BestMapping().empty());
}

TEST(MappingAccumulatorTest, TiesResolveToSmallestMapping) {
  // Insertion order must not matter: three mappings tie at j = 2.
  MappingAccumulator acc;
  acc.AddMatch({3, 1}, 0);
  acc.AddMatch({1, 3}, 0);
  acc.AddMatch({2, 0}, 0);
  acc.AddMatch({3, 1}, 1);
  acc.AddMatch({2, 0}, 1);
  acc.AddMatch({1, 3}, 1);
  acc.AddMatch({0, 4}, 2);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{1, 3}));
  // A later match breaks the tie and the summary follows it.
  acc.AddMatch({3, 1}, 7);
  EXPECT_EQ(acc.MaxJoinability(), 3);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{3, 1}));
}

TEST(MappingAccumulatorTest, DuplicateCombosCountOnce) {
  MappingAccumulator acc;
  for (int rep = 0; rep < 5; ++rep) {
    acc.AddMatch({0, 1}, 4);
    acc.AddMatch({1, 0}, 4);
    acc.AddMatch({1, 0}, 5);
  }
  EXPECT_EQ(acc.NumMappings(), 2u);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{1, 0}));
}

TEST(MappingAccumulatorTest, GrowsPastInitialTableAndClearsForReuse) {
  // 40 x 40 ordered pairs = 1600 distinct mappings, far beyond the initial
  // open-addressed table; mapping (a, b) matches combos 0..(a + b) % 7.
  MappingAccumulator acc;
  for (int round = 0; round < 2; ++round) {
    for (ColumnId a = 0; a < 40; ++a) {
      for (ColumnId b = 0; b < 40; ++b) {
        for (uint32_t combo = 0; combo <= (a + b) % 7; ++combo) {
          acc.AddMatch({a, b}, combo);
        }
      }
    }
    EXPECT_EQ(acc.NumMappings(), 1600u);
    EXPECT_EQ(acc.MaxJoinability(), 7);
    EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 6}));
    acc.Clear();
    EXPECT_EQ(acc.NumMappings(), 0u);
    EXPECT_EQ(acc.MaxJoinability(), 0);
    EXPECT_TRUE(acc.BestMapping().empty());
  }
  // After Clear() the width may change.
  acc.AddMatch({5, 6, 7}, 0);
  acc.AddMatch({5, 6, 7}, 1);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{5, 6, 7}));
}

TEST(MappingAccumulatorTest, RandomAgreementWithReferenceModel) {
  // Reference: the map<mapping, set<combo>> the accumulator replaces.
  Rng rng(77);
  MappingAccumulator acc;
  for (int trial = 0; trial < 200; ++trial) {
    acc.Clear();
    std::map<std::vector<ColumnId>, std::set<uint32_t>> model;
    const size_t width = 1 + rng.Uniform(3);
    const size_t matches = rng.Uniform(300);
    for (size_t i = 0; i < matches; ++i) {
      std::vector<ColumnId> mapping;
      for (size_t w = 0; w < width; ++w) {
        mapping.push_back(static_cast<ColumnId>(rng.Uniform(6)));
      }
      const uint32_t combo = static_cast<uint32_t>(rng.Uniform(20));
      acc.AddMatch(mapping, combo);
      model[mapping].insert(combo);
    }
    int64_t best = 0;
    std::vector<ColumnId> best_mapping;
    for (const auto& [mapping, combos] : model) {  // ascending: first wins
      if (static_cast<int64_t>(combos.size()) > best) {
        best = static_cast<int64_t>(combos.size());
        best_mapping = mapping;
      }
    }
    EXPECT_EQ(acc.NumMappings(), model.size()) << trial;
    EXPECT_EQ(acc.MaxJoinability(), best) << trial;
    EXPECT_EQ(acc.BestMapping(), best_mapping) << trial;
  }
}

TEST(VerifyComboInRowTest, FindsMatchAndMapping) {
  IndexedLake t(MakeCandidateT1());
  MappingAccumulator acc;
  uint64_t cmp = 0;
  EXPECT_TRUE(VerifyComboInRow(t, 1, {"muhammad", "lee", "us"},
                               kInvalidColumnId, 0, &acc, &cmp));
  EXPECT_EQ(acc.MaxJoinability(), 1);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1, 2}));
  EXPECT_EQ(cmp, 3u * 4u);  // three free positions over four columns
}

TEST(VerifyComboInRowTest, RejectsPartialMatch) {
  IndexedLake t(MakeCandidateT1());
  MappingAccumulator acc;
  uint64_t cmp = 0;
  // Row 4 is (Muhammad, Ali, US, Boxer): "lee" missing.
  EXPECT_FALSE(VerifyComboInRow(t, 4, {"muhammad", "lee", "us"},
                                kInvalidColumnId, 0, &acc, &cmp));
  EXPECT_EQ(acc.MaxJoinability(), 0);
  EXPECT_EQ(cmp, 2u * 4u);  // stops at the first position without a match
  // A value absent from the whole index ends the check the same way.
  uint64_t absent_cmp = 0;
  EXPECT_FALSE(VerifyComboInRow(t, 1, {"nobody", "lee", "us"},
                                kInvalidColumnId, 0, &acc, &absent_cmp));
  EXPECT_EQ(absent_cmp, 4u);
}

TEST(VerifyComboInRowTest, HonorsFixedColumn) {
  IndexedLake t(MakeCandidateT1());
  MappingAccumulator acc;
  uint64_t cmp = 0;
  // Fixing "us" (combo position 2) to column 2 works for row 1 and costs one
  // comparison for the fixed position, three per free position.
  EXPECT_TRUE(VerifyComboInRow(t, 1, {"muhammad", "lee", "us"},
                               /*fixed_column=*/2, /*fixed_position=*/2, &acc,
                               &cmp));
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1, 2}));
  EXPECT_EQ(cmp, 3u + 1u + 3u);

  // The fixed column belongs to its position alone: in (x, x, y) the free
  // "x" may not take it, so fixing "x" to column 1 leaves only (1, 2)...
  Table dup("dup");
  for (const char* name : {"a", "b", "c"}) dup.AddColumn(name);
  (void)dup.AppendRow({"x", "X ", "y"});
  (void)dup.AppendRow({"x", "z", "y"});
  IndexedLake d(std::move(dup));
  MappingAccumulator fixed;
  EXPECT_TRUE(VerifyComboInRow(d, 0, {"x", "y"}, /*fixed_column=*/1,
                               /*fixed_position=*/0, &fixed, &cmp));
  EXPECT_EQ(fixed.NumMappings(), 1u);
  EXPECT_EQ(fixed.BestMapping(), (std::vector<ColumnId>{1, 2}));
  MappingAccumulator unfixed;
  EXPECT_TRUE(VerifyComboInRow(d, 0, {"x", "y"}, kInvalidColumnId, 0, &unfixed,
                               &cmp));
  EXPECT_EQ(unfixed.NumMappings(), 2u);
  // ...and (x, x) with column 0 fixed must fail on row 1, whose only other
  // column holding "x" would be the fixed one.
  MappingAccumulator none;
  EXPECT_FALSE(VerifyComboInRow(d, 1, {"x", "x"}, /*fixed_column=*/0,
                                /*fixed_position=*/0, &none, &cmp));
  EXPECT_EQ(none.MaxJoinability(), 0);
}

TEST(VerifyComboInRowTest, RequiresDistinctColumns) {
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  (void)t.AppendRow({"x", "z"});
  IndexedLake lake(std::move(t));
  MappingAccumulator acc;
  uint64_t cmp = 0;
  // Both key values are "x" but the row has only one "x" column: the two
  // positions cannot map to distinct columns.
  EXPECT_FALSE(VerifyComboInRow(lake, 0, {"x", "x"}, kInvalidColumnId, 0,
                                &acc, &cmp));
}

TEST(VerifyComboInRowTest, EnumeratesAlternativeMappings) {
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  t.AddColumn("c");
  (void)t.AppendRow({"x", "x", "y"});
  IndexedLake lake(std::move(t));
  MappingAccumulator acc;
  uint64_t cmp = 0;
  // "x" can map to column 0 or 1: both assignments must be recorded.
  EXPECT_TRUE(VerifyComboInRow(lake, 0, {"x", "y"}, kInvalidColumnId, 0,
                               &acc, &cmp));
  acc.AddMatch({0, 2}, 1);  // a second combo under one of the mappings
  EXPECT_EQ(acc.MaxJoinability(), 2);
}

TEST(VerifyComboInRowTest, MappingCapBoundsEnumeration) {
  // Row 0 repeats "x" in all 14 columns, so the combo (x, x) has 14 * 13 =
  // 182 distinct-column assignments; the cap keeps the first 128 in
  // enumeration order: position 0 on columns 0..8 with all 13 partners,
  // then column 9 with partners 0..8, 10 and 11. Row 1 holds "x" only in
  // columns 12 and 13, and matches combo 1 under (12, 13) and (13, 12).
  constexpr size_t kColumns = 14;
  Table t("t");
  for (size_t c = 0; c < kColumns; ++c) t.AddColumn("c" + std::to_string(c));
  (void)t.AppendRow(std::vector<std::string>(kColumns, "x"));
  std::vector<std::string> sparse(kColumns, "o");
  sparse[12] = sparse[13] = " X ";
  (void)t.AppendRow(std::vector<std::string>(sparse));
  IndexedLake lake(std::move(t));

  MappingAccumulator acc;
  RowVerifier verifier;
  uint64_t cmp = 0;
  EXPECT_TRUE(VerifyWith(&verifier, lake, 0, 0, {"x", "x"}, 0,
                         kInvalidColumnId, 0, &acc, &cmp));
  EXPECT_EQ(acc.NumMappings(), static_cast<size_t>(kMaxMappingsPerRowCombo));
  EXPECT_TRUE(VerifyWith(&verifier, lake, 0, 1, {"x", "x"}, 1,
                         kInvalidColumnId, 0, &acc, &cmp));
  EXPECT_EQ(acc.NumMappings(), kMaxMappingsPerRowCombo + 2u);
  EXPECT_EQ(cmp, 4u * kColumns);
  // Uncapped, (12, 13) would hold both combos and j would be 2: the cap
  // under-counts, deterministically.
  EXPECT_EQ(acc.MaxJoinability(), 1);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{0, 1}));
  // The last mapping kept is (9, 11); (9, 12) was cut.
  acc.AddMatch({9, 11}, 2);
  EXPECT_EQ(acc.MaxJoinability(), 2);
  EXPECT_EQ(acc.BestMapping(), (std::vector<ColumnId>{9, 11}));
  acc.AddMatch({9, 12}, 2);
  EXPECT_EQ(acc.NumMappings(), kMaxMappingsPerRowCombo + 3u);
}

TEST(VerifyComboInRowTest, ReusedVerifierMatchesFreshOne) {
  // One verifier across rows and tables of different widths gives the same
  // answers and comparison counts as a fresh verifier per check.
  Table narrow("n");
  narrow.AddColumn("a");
  narrow.AddColumn("b");
  (void)narrow.AppendRow({" lee ", "MUHAMMAD"});
  IndexedLake lake(MakeCandidateT1());
  lake.Add(std::move(narrow));
  const std::vector<std::string> combo = {"muhammad", "lee"};
  RowVerifier shared;
  for (int pass = 0; pass < 2; ++pass) {
    for (TableId t = 0; t < lake.corpus.NumTables(); ++t) {
      for (RowId r = 0; r < lake.corpus.table(t).NumRows(); ++r) {
        MappingAccumulator acc_shared, acc_fresh;
        uint64_t cmp_shared = 0, cmp_fresh = 0;
        const bool got = VerifyWith(&shared, lake, t, r, combo, 0,
                                    kInvalidColumnId, 0, &acc_shared,
                                    &cmp_shared);
        RowVerifier fresh;
        const bool want = VerifyWith(&fresh, lake, t, r, combo, 0,
                                     kInvalidColumnId, 0, &acc_fresh,
                                     &cmp_fresh);
        EXPECT_EQ(got, want);
        EXPECT_EQ(cmp_shared, cmp_fresh);
        EXPECT_EQ(acc_shared.BestMapping(), acc_fresh.BestMapping());
      }
    }
  }
}

TEST(VerifyComboInRowTest, RandomAgreementWithBruteForce) {
  // Property: for a 1-row candidate, VerifyComboInRow agrees with
  // BruteForceJoinability on whether j > 0.
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    size_t cols = 2 + rng.Uniform(4);
    Table cand("c");
    for (size_t c = 0; c < cols; ++c) cand.AddColumn("c" + std::to_string(c));
    std::vector<std::string> row;
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
    }
    (void)cand.AppendRow(std::vector<std::string>(row));

    size_t m = 1 + rng.Uniform(2);
    Table query("q");
    std::vector<ColumnId> key_cols;
    std::vector<std::string> combo;
    for (size_t i = 0; i < m; ++i) {
      query.AddColumn("k" + std::to_string(i));
      key_cols.push_back(static_cast<ColumnId>(i));
      combo.push_back(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
    }
    (void)query.AppendRow(std::vector<std::string>(combo));
    const int64_t brute =
        BruteForceJoinability(query, key_cols, cand).joinability;

    IndexedLake lake(std::move(cand));
    MappingAccumulator acc;
    uint64_t cmp = 0;
    bool verified =
        VerifyComboInRow(lake, 0, combo, kInvalidColumnId, 0, &acc, &cmp);
    EXPECT_EQ(verified, brute > 0) << trial;
    EXPECT_EQ(acc.MaxJoinability(), brute) << trial;
  }
}

}  // namespace
}  // namespace mate
