// Discovery result and instrumentation types shared by MATE and every
// baseline system, plus precision accounting (§7.4: precision = TP/(TP+FP)
// over candidate rows that reach verification).

#ifndef MATE_CORE_TOPK_H_
#define MATE_CORE_TOPK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/types.h"
#include "util/topk_heap.h"

namespace mate {

struct TableResult {
  TableId table_id = kInvalidTableId;
  int64_t joinability = 0;
  /// Best column mapping found (query key position -> candidate column).
  std::vector<ColumnId> best_mapping;
};

struct DiscoveryStats {
  double runtime_seconds = 0.0;

  /// PL items fetched in the initialization step (§6.1) — across all probed
  /// values and, for MCR, across all query columns.
  uint64_t pl_items_fetched = 0;

  uint64_t candidate_tables = 0;      // tables with >= 1 fetched PL item
  uint64_t tables_evaluated = 0;      // reached the row loop
  uint64_t tables_pruned_rule1 = 0;   // §6.2 rule 1 (sorted-order break)
  uint64_t tables_pruned_rule2 = 0;   // §6.2 rule 2 (mid-table skip)

  uint64_t rows_checked = 0;           // PL items visited in the row loop
  uint64_t rows_sent_to_verification = 0;  // passed the super-key filter
  uint64_t rows_true_positive = 0;     // verified joinable (>= 1 combo)
  // Cells whose equality verification decided (RowVerifier::VerifyCombo).
  uint64_t value_comparisons = 0;

  /// Intra-query execution shape (core/query_executor.h): evaluation shards
  /// and resolved fan-out width this query ran with; 1/1 is the serial
  /// path. Execution-only — top_k never depends on them — and deterministic
  /// for a given query + executor configuration. Work counters above are
  /// deterministic per shard count but legitimately vary *across* shard
  /// counts (local pruning replaces the serial shared-heap pruning).
  uint64_t shards_used = 1;
  uint64_t fanout_threads = 1;

  /// Corpus residency work this query triggered (storage/table_store.h):
  /// candidate tables whose cells (or touched columns) had to parse, how
  /// many of those were re-parses after an eviction, and the on-disk extent
  /// bytes parsed. All zero against a fully resident corpus.
  uint64_t tables_materialized = 0;
  uint64_t tables_rematerialized = 0;
  uint64_t cell_bytes_materialized = 0;

  /// §7.4: TP / (TP + FP) over rows that reached verification.
  double Precision() const {
    if (rows_sent_to_verification == 0) return 1.0;
    return static_cast<double>(rows_true_positive) /
           static_cast<double>(rows_sent_to_verification);
  }

  uint64_t FalsePositiveRows() const {
    return rows_sent_to_verification - rows_true_positive;
  }

  void Merge(const DiscoveryStats& other);
  std::string ToString() const;
};

struct DiscoveryResult {
  std::vector<TableResult> top_k;  // joinability desc, table id asc
  DiscoveryStats stats;

  /// Joinability of the i-th result, 0 when absent — convenient in tests.
  int64_t JoinabilityAt(size_t i) const {
    return i < top_k.size() ? top_k[i].joinability : 0;
  }
};

/// Converts a heap into the sorted result list (j == 0 entries never enter
/// the heap). `best_mappings` supplies TableResult::best_mapping per table.
std::vector<TableResult> FinalizeTopK(
    const TopKHeap<TableId>& heap,
    const std::unordered_map<TableId, std::vector<ColumnId>>& best_mappings);

}  // namespace mate

#endif  // MATE_CORE_TOPK_H_
