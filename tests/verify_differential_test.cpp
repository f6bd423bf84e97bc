// Posting-list verification against the cell scan it replaced. Random small
// lakes go through random §5.4 edits (cell updates, row inserts, row
// deletes, appends that refill a deleted last row); after each script, for
// every live row and query combo, RowVerifier (reading the index) must
// agree with a cell-scanning reference kept here — same answer, same
// comparison count, same mappings — and MATE's and MCR's Discover must equal
// BruteForceJoinability on every table.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "baselines/mcr.h"
#include "core/joinability.h"
#include "core/mate.h"
#include "index/index_builder.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace mate {
namespace {

// Raw cells: case and whitespace noise over a few normalized values, plus
// empty cells, so rows repeat values across columns.
const char* const kRawValues[] = {"a", "A ", " b", "B", "c", "c", "d", ""};
const char* const kKeyValues[] = {"a", "b", "c", "d"};

std::string RandomCell(Rng* rng) {
  return kRawValues[rng->Uniform(std::size(kRawValues))];
}

// The cell-scanning verifier the posting-list one replaced: every column of
// the row is normalized and compared for every free position, in the same
// position-major order with the same early exit and enumeration.
struct CellScanResult {
  bool matched = false;
  uint64_t comparisons = 0;
  std::vector<std::vector<ColumnId>> mappings;
};

void EnumerateReference(const std::vector<std::vector<ColumnId>>& candidates,
                        const std::vector<size_t>& order, size_t depth,
                        std::vector<ColumnId>* mapping,
                        std::vector<char>* used, CellScanResult* out) {
  const size_t cap = kMaxMappingsPerRowCombo;
  if (out->mappings.size() >= cap) return;
  if (depth == order.size()) {
    out->mappings.push_back(*mapping);
    return;
  }
  const size_t pos = order[depth];
  for (const ColumnId c : candidates[pos]) {
    if ((*used)[c]) continue;
    (*used)[c] = 1;
    (*mapping)[pos] = c;
    EnumerateReference(candidates, order, depth + 1, mapping, used, out);
    (*used)[c] = 0;
    if (out->mappings.size() >= cap) return;
  }
}

CellScanResult CellScanVerify(const Table& table, RowId row,
                              const std::vector<std::string>& combo,
                              ColumnId fixed_column, size_t fixed_position) {
  CellScanResult out;
  const size_t m = combo.size();
  const size_t n = table.NumColumns();
  if (m > n) return out;
  const bool has_fixed = fixed_column != kInvalidColumnId;
  std::vector<std::vector<ColumnId>> candidates(m);
  for (size_t i = 0; i < m; ++i) {
    if (has_fixed && i == fixed_position) {
      ++out.comparisons;
      if (NormalizeValue(table.cell(row, fixed_column)) != combo[i]) {
        return out;
      }
      candidates[i].push_back(fixed_column);
      continue;
    }
    out.comparisons += has_fixed ? n - 1 : n;
    for (ColumnId c = 0; c < n; ++c) {
      if (c == fixed_column) continue;
      if (NormalizeValue(table.cell(row, c)) == combo[i]) {
        candidates[i].push_back(c);
      }
    }
    if (candidates[i].empty()) return out;
  }
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return candidates[a].size() < candidates[b].size();
  });
  std::vector<ColumnId> mapping(m, kInvalidColumnId);
  std::vector<char> used(n, 0);
  EnumerateReference(candidates, order, 0, &mapping, &used, &out);
  out.matched = !out.mappings.empty();
  return out;
}

struct Lake {
  Corpus corpus;
  std::unique_ptr<InvertedIndex> index;
};

Lake RandomLake(Rng* rng) {
  Lake lake;
  const size_t tables = 1 + rng->Uniform(4);
  for (size_t t = 0; t < tables; ++t) {
    Table table("t" + std::to_string(t));
    const size_t cols = 1 + rng->Uniform(5);
    for (size_t c = 0; c < cols; ++c) table.AddColumn("c" + std::to_string(c));
    const size_t rows = 1 + rng->Uniform(8);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < cols; ++c) cells.push_back(RandomCell(rng));
      (void)table.AppendRow(std::move(cells));
    }
    lake.corpus.AddTable(std::move(table));
  }
  auto built = BuildIndex(lake.corpus, IndexBuildOptions{});
  EXPECT_TRUE(built.ok());
  lake.index = std::move(*built);
  return lake;
}

std::vector<RowId> LiveRows(const Table& table) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (!table.IsRowDeleted(r)) rows.push_back(r);
  }
  return rows;
}

// One random §5.4 edit, applied to corpus and index in the documented
// order: the index drops a row's postings before the next append.
void RandomEdit(Lake* lake, Rng* rng) {
  const TableId t =
      static_cast<TableId>(rng->Uniform(lake->corpus.NumTables()));
  Table* table = lake->corpus.mutable_table(t);
  InvertedIndex* index = lake->index.get();
  const std::vector<RowId> live = LiveRows(*table);
  std::vector<std::string> cells;
  for (size_t c = 0; c < table->NumColumns(); ++c) {
    cells.push_back(RandomCell(rng));
  }
  const auto delete_row = [&](RowId r) {
    // Either order is allowed; tombstoned cells stay readable.
    if (rng->Uniform(2) == 0) {
      ASSERT_TRUE(index->DeleteRow(lake->corpus, t, r).ok());
      ASSERT_TRUE(table->DeleteRow(r).ok());
    } else {
      ASSERT_TRUE(table->DeleteRow(r).ok());
      ASSERT_TRUE(index->DeleteRow(lake->corpus, t, r).ok());
    }
  };
  const auto append_row = [&] {
    auto r = table->AppendRow(cells);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(index->InsertRow(lake->corpus, t, *r).ok());
  };
  switch (rng->Uniform(4)) {
    case 0: {  // UpdateCell
      if (live.empty()) return;
      const RowId r = live[rng->Uniform(live.size())];
      const ColumnId c = static_cast<ColumnId>(rng->Uniform(cells.size()));
      const std::string old_norm = NormalizeValue(table->cell(r, c));
      ASSERT_TRUE(table->SetCell(r, c, cells[c]).ok());
      ASSERT_TRUE(index->UpdateCell(lake->corpus, t, r, c, old_norm).ok());
      return;
    }
    case 1:  // InsertRow
      append_row();
      return;
    case 2:  // DeleteRow
      if (live.empty()) return;
      delete_row(live[rng->Uniform(live.size())]);
      return;
    default: {  // append after deleting the last live row: a refilled slot
      if (live.empty()) return;
      const size_t rows_before = table->NumRows();
      delete_row(live.back());
      append_row();
      EXPECT_EQ(table->NumRows(), rows_before);
      return;
    }
  }
}

// Posting-list verification of every live row against the cell scan, free
// and with position 0 fixed to each column holding its value.
void ExpectRowsAgree(const Lake& lake,
                     const std::vector<std::vector<std::string>>& combos) {
  RowVerifier verifier;
  for (TableId t = 0; t < lake.corpus.NumTables(); ++t) {
    const Table& table = lake.corpus.table(t);
    for (const RowId r : LiveRows(table)) {
      for (uint32_t id = 0; id < combos.size(); ++id) {
        const std::vector<std::string>& combo = combos[id];
        std::vector<const PostingList*> lists;
        for (const std::string& v : combo) {
          lists.push_back(lake.index->Lookup(v));
        }
        std::vector<ColumnId> fixed = {kInvalidColumnId};
        for (ColumnId c = 0; c < table.NumColumns(); ++c) {
          if (NormalizeValue(table.cell(r, c)) == combo[0]) fixed.push_back(c);
        }
        for (const ColumnId f : fixed) {
          const CellScanResult want = CellScanVerify(table, r, combo, f, 0);
          MappingAccumulator acc;
          uint64_t comparisons = 0;
          const bool got = verifier.VerifyCombo(lists, id, t, r,
                                                table.NumColumns(), f, 0,
                                                &acc, &comparisons);
          SCOPED_TRACE("table " + std::to_string(t) + " row " +
                       std::to_string(r) + " combo " + FormatKeyCombo(combo) +
                       " fixed " + std::to_string(f));
          EXPECT_EQ(got, want.matched);
          EXPECT_EQ(comparisons, want.comparisons);
          // Same mapping set: the accumulator interned exactly the
          // reference's mappings, so re-adding them creates none.
          EXPECT_EQ(acc.NumMappings(), want.mappings.size());
          for (const std::vector<ColumnId>& mapping : want.mappings) {
            acc.AddMatch(mapping, id + 1);
          }
          EXPECT_EQ(acc.NumMappings(), want.mappings.size());
        }
      }
    }
  }
}

// Discover at k = all tables equals the brute-force joinability of every
// table, for MATE (filter on and off) and MCR.
void ExpectDiscoverEqualsBruteForce(const Lake& lake, const Table& query,
                                    const std::vector<ColumnId>& key) {
  std::set<std::pair<TableId, int64_t>> want;
  for (TableId t = 0; t < lake.corpus.NumTables(); ++t) {
    const int64_t j =
        BruteForceJoinability(query, key, lake.corpus.table(t)).joinability;
    if (j > 0) want.insert({t, j});
  }
  DiscoveryOptions options;
  options.k = static_cast<int>(lake.corpus.NumTables());
  DiscoveryOptions no_filter = options;
  no_filter.use_row_filter = false;
  MateSearch mate(&lake.corpus, lake.index.get());
  McrSearch mcr(&lake.corpus, lake.index.get());
  for (const DiscoveryResult& result :
       {mate.Discover(query, key, options),
        mate.Discover(query, key, no_filter),
        mcr.Discover(query, key, options)}) {
    std::set<std::pair<TableId, int64_t>> got;
    for (const TableResult& tr : result.top_k) {
      got.insert({tr.table_id, tr.joinability});
    }
    EXPECT_EQ(got, want);
  }
}

TEST(VerifyDifferentialTest, PostingListsMatchCellScanUnderEdits) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Lake lake = RandomLake(&rng);

    // A query of 1-3 key columns over the key values, a few rows.
    const size_t m = 1 + rng.Uniform(3);
    Table query("q");
    std::vector<ColumnId> key;
    for (size_t i = 0; i < m; ++i) {
      query.AddColumn("k" + std::to_string(i));
      key.push_back(static_cast<ColumnId>(i));
    }
    const size_t query_rows = 1 + rng.Uniform(6);
    for (size_t r = 0; r < query_rows; ++r) {
      std::vector<std::string> cells;
      for (size_t i = 0; i < m; ++i) {
        cells.push_back(kKeyValues[rng.Uniform(std::size(kKeyValues))]);
      }
      (void)query.AppendRow(std::move(cells));
    }
    const std::vector<std::vector<std::string>> combos =
        ExtractKeyCombos(query, key);

    for (int round = 0; round < 4; ++round) {
      const int edits = static_cast<int>(rng.Uniform(8));
      for (int e = 0; e < edits; ++e) RandomEdit(&lake, &rng);
      ExpectRowsAgree(lake, combos);
      ExpectDiscoverEqualsBruteForce(lake, query, key);
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace mate
