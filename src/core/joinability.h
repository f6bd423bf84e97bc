// Joinability (§2): j(R,S) = max over size-|Q| column mappings Y' of
// |pi_Q(R) ∩ pi_Y'(S)| — set semantics over distinct key combinations.
//
// Two implementations live here:
//   * MappingAccumulator + RowVerifier: the incremental, row-driven
//     verification MATE and MCR share (Algorithm 1's calculateJ), read off
//     the index's posting lists.
//   * BruteForceJoinability: the P(|T'|,|Q|)-mapping reference used as
//     ground truth in tests and as the "Ideal" oracle in benches.
//
// The oracle and the combo extraction take `const Table&` — already-
// materialized tables; the verifier reads no cells at all.

#ifndef MATE_CORE_JOINABILITY_H_
#define MATE_CORE_JOINABILITY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/posting.h"
#include "storage/table.h"
#include "storage/types.h"

namespace mate {

/// Distinct normalized key combinations of the query's key columns, in
/// first-appearance order. Combos containing an empty value are dropped
/// (empty cells are not meaningful join keys).
std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns);

/// Aggregates verified (mapping, combo) matches for one candidate table and
/// reports the mapping with the most distinct matched combos — Equation 2's
/// arg max. Flat and allocation-free once warmed: mappings are interned in
/// an open-addressed table keyed by the packed column tuple, matches are
/// appended as (mapping id, combo id) pairs, and j plus the best mapping
/// fall out of one pass over the sorted pairs. Clear() keeps the capacity,
/// so one accumulator serves every table a shard evaluates.
class MappingAccumulator {
 public:
  /// Records that query combo `combo_id` matches under `mapping` (mapping[i]
  /// = the candidate column holding the i-th key value). Every mapping added
  /// between two Clear() calls has the same width.
  void AddMatch(const std::vector<ColumnId>& mapping, uint32_t combo_id);

  /// Max distinct combos over any single mapping (0 if no matches).
  int64_t MaxJoinability();

  /// A best mapping (empty if no matches); ties resolve to the
  /// lexicographically smallest mapping for determinism.
  std::vector<ColumnId> BestMapping();

  /// Distinct mappings recorded since Clear().
  size_t NumMappings() const {
    return width_ == 0 ? 0 : columns_.size() / width_;
  }

  void Clear();

 private:
  // Sorts matches_ and finds the best mapping; a no-op until the next
  // AddMatch.
  void Summarize();
  void Grow();

  size_t width_ = 0;               // columns per mapping
  std::vector<ColumnId> columns_;  // mapping id -> its packed column tuple
  std::vector<uint32_t> slots_;    // open-addressed: mapping id + 1, 0 = empty
  std::vector<uint64_t> matches_;  // (mapping id << 32) | combo id
  bool summarized_ = true;
  int64_t best_count_ = 0;
  uint32_t best_id_ = 0;
};

/// Safety valve for pathological rows (many repeated values): at most this
/// many column assignments are enumerated per (row, combo) pair. Exceeding
/// it can only under-count joinability on adversarial inputs; realistic
/// rows bind each key value to very few columns.
inline constexpr int kMaxMappingsPerRowCombo = 128;

/// Exact verification of query combos against one candidate row at a time
/// (Algorithm 1's calculateJ), answered from the index instead of the row's
/// cells: a combo value's posting list is sorted by (table, row, column), so
/// the columns of row (t, r) that hold the value are one contiguous run of
/// it, found by binary search. The working arrays (the flat m x n
/// candidate-column table, per-position counts, order, mapping, used flags)
/// are reused across rows and tables, so verification allocates nothing once
/// warmed. One verifier per evaluating thread.
///
/// Precondition: the posting lists describe the live row (t, r) exactly —
/// the index has seen every edit of the row (§5.4 maintenance).
class RowVerifier {
 public:
  /// Exact containment check of one combo in row `row` of table `table`
  /// (`num_columns` wide). `lists[i]` is the posting list of the combo's
  /// i-th normalized value (InvertedIndex::Lookup; nullptr when absent). If
  /// every combo value occurs in the row, records all feasible
  /// distinct-column assignments in `acc` (those where column
  /// `fixed_column`, when not kInvalidColumnId, is assigned to combo
  /// position `fixed_position`) and returns true. The fixed column must
  /// hold that position's value (the caller took it from the value's
  /// posting list), so it is not looked up again.
  ///
  /// `value_comparisons` counts the cells whose equality the check decided:
  /// the row's width (less the fixed column) per free position examined
  /// and 1 for the fixed position, positions in order, stopping at the
  /// first position with no match.
  bool VerifyCombo(std::span<const PostingList* const> lists,
                   uint32_t combo_id, TableId table, RowId row,
                   size_t num_columns, ColumnId fixed_column,
                   size_t fixed_position, MappingAccumulator* acc,
                   uint64_t* value_comparisons);

 private:
  void Enumerate(size_t depth);

  // Per-combo working state.
  size_t n_ = 0;                      // columns in the checked row
  std::vector<ColumnId> candidates_;  // m x n: position i's matching columns
  std::vector<uint32_t> counts_;      // candidates per position
  std::vector<uint32_t> order_;       // positions, fewest candidates first
  std::vector<ColumnId> mapping_;
  std::vector<char> used_;
  MappingAccumulator* acc_ = nullptr;
  uint32_t combo_id_ = 0;
  int emitted_ = 0;
};

struct BruteForceResult {
  int64_t joinability = 0;
  std::vector<ColumnId> best_mapping;
};

/// Reference joinability: enumerates every ordered selection of |Q| distinct
/// candidate columns (Equation 3 mappings) and counts distinct matched
/// combos. Exponential in |Q|; intended for tests and small oracles.
BruteForceResult BruteForceJoinability(const Table& query,
                                       const std::vector<ColumnId>& key_columns,
                                       const Table& candidate);

}  // namespace mate

#endif  // MATE_CORE_JOINABILITY_H_
