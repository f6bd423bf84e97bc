#include "baselines/mcr.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace mate {

namespace {

uint64_t RowKey(TableId t, RowId r) {
  return (static_cast<uint64_t>(t) << 32) | r;
}

}  // namespace

DiscoveryResult McrSearch::Discover(const Table& query,
                                    const std::vector<ColumnId>& key_columns,
                                    const DiscoveryOptions& options) const {
  Stopwatch timer;
  DiscoveryResult result;
  DiscoveryStats& stats = result.stats;
  const size_t m = key_columns.size();
  if (m == 0 || m > 32 || options.k <= 0) {
    stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }

  const std::vector<std::vector<std::string>> combos =
      ExtractKeyCombos(query, key_columns);

  // Any key value (at any position) -> combo ids containing it; used to bind
  // candidate rows to the query combos they must be verified against.
  std::unordered_map<std::string_view, std::vector<uint32_t>> combos_of_value;
  // Distinct values per key position, for the per-column PL fetches.
  std::vector<std::unordered_set<std::string_view>> values_at(m);
  for (uint32_t combo_id = 0; combo_id < combos.size(); ++combo_id) {
    for (size_t i = 0; i < m; ++i) {
      const std::string& v = combos[combo_id][i];
      values_at[i].insert(v);
      std::vector<uint32_t>& list = combos_of_value[v];
      if (list.empty() || list.back() != combo_id) list.push_back(combo_id);
    }
  }

  // Every combo value's posting list, combo-major, for verification.
  std::vector<const PostingList*> combo_lists;
  combo_lists.reserve(combos.size() * m);
  for (const auto& combo : combos) {
    for (const std::string& v : combo) {
      combo_lists.push_back(index_->Lookup(v));
    }
  }

  // Per-column retrieval: accumulate which key positions hit each row.
  std::unordered_set<TableId> excluded(options.exclude_tables.begin(),
                                       options.exclude_tables.end());
  const uint32_t full_mask =
      m == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << m) - 1);
  std::unordered_map<uint64_t, uint32_t> row_masks;
  for (size_t i = 0; i < m; ++i) {
    for (std::string_view v : values_at[i]) {
      const PostingList* pl = index_->Lookup(v);
      if (pl == nullptr) continue;
      stats.pl_items_fetched += pl->size();
      for (const PostingEntry& entry : *pl) {
        if (excluded.count(entry.table_id)) continue;
        row_masks[RowKey(entry.table_id, entry.row_id)] |= uint32_t{1} << i;
      }
    }
  }

  // Intersection: rows hit by every key column, grouped per table.
  std::unordered_map<TableId, std::vector<RowId>> candidate_rows;
  for (const auto& [key, mask] : row_masks) {
    if (mask == full_mask) {
      candidate_rows[static_cast<TableId>(key >> 32)].push_back(
          static_cast<RowId>(key & 0xFFFFFFFFu));
    }
  }
  stats.candidate_tables = candidate_rows.size();

  // Deterministic evaluation order.
  std::vector<TableId> tables;
  tables.reserve(candidate_rows.size());
  for (const auto& [t, rows] : candidate_rows) tables.push_back(t);
  std::sort(tables.begin(), tables.end());

  TopKHeap<TableId> topk(static_cast<size_t>(options.k));
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  MappingAccumulator acc;
  RowVerifier verifier;
  std::vector<uint32_t> bound;

  for (TableId t : tables) {
    ++stats.tables_evaluated;
    const Table& table = corpus_->table(t);
    std::vector<RowId>& rows = candidate_rows[t];
    std::sort(rows.begin(), rows.end());
    acc.Clear();
    for (RowId r : rows) {
      ++stats.rows_checked;
      ++stats.rows_sent_to_verification;
      // Bind the combos sharing at least one value with this row.
      bound.clear();
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        auto it = combos_of_value.find(NormalizeValue(table.cell(r, c)));
        if (it == combos_of_value.end()) continue;
        bound.insert(bound.end(), it->second.begin(), it->second.end());
      }
      std::sort(bound.begin(), bound.end());
      bound.erase(std::unique(bound.begin(), bound.end()), bound.end());

      bool row_matched = false;
      for (uint32_t combo_id : bound) {
        const std::span<const PostingList* const> lists =
            std::span(combo_lists).subspan(combo_id * m, m);
        if (verifier.VerifyCombo(lists, combo_id, t, r, table.NumColumns(),
                                 kInvalidColumnId, 0, &acc,
                                 &stats.value_comparisons)) {
          row_matched = true;
        }
      }
      if (row_matched) ++stats.rows_true_positive;
    }
    const int64_t j = acc.MaxJoinability();
    if (j > 0 && topk.Add(t, j)) best_mappings[t] = acc.BestMapping();
  }

  result.top_k = FinalizeTopK(topk, best_mappings);
  stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace mate
