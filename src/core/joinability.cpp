#include "core/joinability.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/coding.h"
#include "util/string_util.h"

namespace mate {

namespace {

// Set key of a combo: each value length-prefixed, so no value content can
// make two different combos collide. BruteForceJoinability builds its row
// keys the same way.
std::string ComboKey(const std::vector<std::string>& combo) {
  std::string key;
  for (const std::string& v : combo) PutLengthPrefixed(&key, v);
  return key;
}

constexpr size_t kInitialSlots = 64;

size_t HashColumns(const ColumnId* columns, size_t width) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < width; ++i) h = (h ^ columns[i]) * 0x100000001B3ULL;
  return static_cast<size_t>(h ^ (h >> 29));
}

}  // namespace

std::vector<std::vector<std::string>> ExtractKeyCombos(
    const Table& query, const std::vector<ColumnId>& key_columns) {
  std::vector<std::vector<std::string>> combos;
  std::unordered_set<std::string> seen;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    std::vector<std::string> combo;
    combo.reserve(key_columns.size());
    bool has_empty = false;
    for (ColumnId c : key_columns) {
      combo.push_back(NormalizeValue(query.cell(r, c)));
      if (combo.back().empty()) has_empty = true;
    }
    if (has_empty) continue;
    if (seen.insert(ComboKey(combo)).second) {
      combos.push_back(std::move(combo));
    }
  }
  return combos;
}

void MappingAccumulator::AddMatch(const std::vector<ColumnId>& mapping,
                                  uint32_t combo_id) {
  if (width_ == 0) width_ = mapping.size();
  assert(mapping.size() == width_);
  if ((NumMappings() + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t slot = HashColumns(mapping.data(), width_) & mask;
  uint32_t id = 0;
  while (true) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) {
      id = static_cast<uint32_t>(NumMappings());
      columns_.insert(columns_.end(), mapping.begin(), mapping.end());
      slots_[slot] = id + 1;
      break;
    }
    if (std::equal(mapping.begin(), mapping.end(),
                   columns_.begin() + (entry - 1) * width_)) {
      id = entry - 1;
      break;
    }
    slot = (slot + 1) & mask;
  }
  matches_.push_back((uint64_t{id} << 32) | combo_id);
  summarized_ = false;
}

void MappingAccumulator::Grow() {
  slots_.assign(std::max(kInitialSlots, slots_.size() * 2), 0);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < NumMappings(); ++id) {
    size_t slot = HashColumns(&columns_[id * width_], width_) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = id + 1;
  }
}

void MappingAccumulator::Clear() {
  if (!columns_.empty()) std::fill(slots_.begin(), slots_.end(), 0);
  width_ = 0;
  columns_.clear();
  matches_.clear();
  summarized_ = true;
  best_count_ = 0;
  best_id_ = 0;
}

void MappingAccumulator::Summarize() {
  if (summarized_) return;
  summarized_ = true;
  // Sorted pairs group each mapping's combos together, duplicates adjacent.
  std::sort(matches_.begin(), matches_.end());
  best_count_ = 0;
  best_id_ = 0;
  const auto mapping_of = [this](uint32_t id) {
    return columns_.begin() + id * width_;
  };
  for (size_t i = 0; i < matches_.size();) {
    const uint32_t id = static_cast<uint32_t>(matches_[i] >> 32);
    int64_t count = 0;
    for (uint64_t prev = ~uint64_t{0};
         i < matches_.size() && (matches_[i] >> 32) == id; ++i) {
      if (matches_[i] != prev) ++count;
      prev = matches_[i];
    }
    if (count > best_count_ ||
        (count == best_count_ &&
         std::lexicographical_compare(mapping_of(id), mapping_of(id) + width_,
                                      mapping_of(best_id_),
                                      mapping_of(best_id_) + width_))) {
      best_count_ = count;
      best_id_ = id;
    }
  }
}

int64_t MappingAccumulator::MaxJoinability() {
  Summarize();
  return best_count_;
}

std::vector<ColumnId> MappingAccumulator::BestMapping() {
  Summarize();
  if (best_count_ == 0) return {};
  const auto begin = columns_.begin() + best_id_ * width_;
  return std::vector<ColumnId>(begin, begin + width_);
}

bool RowVerifier::VerifyCombo(std::span<const PostingList* const> lists,
                              uint32_t combo_id, TableId table, RowId row,
                              size_t num_columns, ColumnId fixed_column,
                              size_t fixed_position, MappingAccumulator* acc,
                              uint64_t* value_comparisons) {
  const size_t m = lists.size();
  const size_t n = num_columns;
  if (m > n) return false;
  n_ = n;
  if (candidates_.size() < m * n) candidates_.resize(m * n);
  if (used_.size() < n) used_.resize(n, 0);
  if (counts_.size() < m) {
    counts_.resize(m);
    order_.resize(m);
  }
  const bool has_fixed = fixed_column != kInvalidColumnId;
  // A free position decides every column but the fixed one.
  const uint64_t scan_width = has_fixed ? n - 1 : n;

  // Columns holding each combo position's value, position-major; a position
  // with no match ends the check.
  for (size_t i = 0; i < m; ++i) {
    ColumnId* candidates = &candidates_[i * n];
    uint32_t count = 0;
    if (has_fixed && i == fixed_position) {
      ++*value_comparisons;
      assert(lists[i] != nullptr &&
             std::binary_search(lists[i]->begin(), lists[i]->end(),
                                PostingEntry{table, fixed_column, row}));
      candidates[count++] = fixed_column;
    } else {
      *value_comparisons += scan_width;
      const PostingList* list = lists[i];
      if (list == nullptr) return false;
      // Entries sort by (table, row, column): the row's run starts at
      // (table, row, column 0).
      for (auto it = std::lower_bound(list->begin(), list->end(),
                                      PostingEntry{table, 0, row});
           it != list->end() && it->table_id == table && it->row_id == row;
           ++it) {
        // The bound only keeps a stale index in memory bounds; a consistent
        // one never lists a column past the row's width.
        if (it->column_id != fixed_column && it->column_id < n) {
          candidates[count++] = it->column_id;
        }
      }
      if (count == 0) return false;
    }
    counts_[i] = count;
  }

  // Enumerate distinct-column assignments, smallest candidate sets first to
  // fail fast (stable, so equal counts keep position order), emitting each
  // complete assignment as a mapping.
  for (uint32_t i = 0; i < m; ++i) {
    uint32_t j = i;
    for (; j > 0 && counts_[order_[j - 1]] > counts_[i]; --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = i;
  }
  mapping_.assign(m, kInvalidColumnId);
  acc_ = acc;
  combo_id_ = combo_id;
  emitted_ = 0;
  Enumerate(0);
  return emitted_ > 0;
}

void RowVerifier::Enumerate(size_t depth) {
  if (emitted_ >= kMaxMappingsPerRowCombo) return;
  if (depth == mapping_.size()) {
    acc_->AddMatch(mapping_, combo_id_);
    ++emitted_;
    return;
  }
  const uint32_t pos = order_[depth];
  const ColumnId* candidates = &candidates_[pos * n_];
  for (uint32_t k = 0; k < counts_[pos]; ++k) {
    const ColumnId c = candidates[k];
    if (used_[c]) continue;
    used_[c] = 1;
    mapping_[pos] = c;
    Enumerate(depth + 1);
    used_[c] = 0;
    if (emitted_ >= kMaxMappingsPerRowCombo) return;
  }
}

namespace {

void EnumerateMappings(const Table& candidate, size_t m,
                       std::vector<ColumnId>* mapping,
                       std::vector<char>* used,
                       const std::unordered_set<std::string>& query_combos,
                       BruteForceResult* result) {
  const size_t n = candidate.NumColumns();
  if (mapping->size() == m) {
    std::unordered_set<std::string> matched;
    std::string key;
    for (RowId r = 0; r < candidate.NumRows(); ++r) {
      if (candidate.IsRowDeleted(r)) continue;
      key.clear();
      bool has_empty = false;
      for (ColumnId c : *mapping) {
        std::string norm = NormalizeValue(candidate.cell(r, c));
        if (norm.empty()) has_empty = true;
        PutLengthPrefixed(&key, norm);
      }
      if (has_empty) continue;
      if (query_combos.count(key)) matched.insert(key);
    }
    int64_t j = static_cast<int64_t>(matched.size());
    if (j > result->joinability ||
        (j == result->joinability && j > 0 &&
         (result->best_mapping.empty() || *mapping < result->best_mapping))) {
      result->joinability = j;
      result->best_mapping = *mapping;
    }
    return;
  }
  for (ColumnId c = 0; c < n; ++c) {
    if ((*used)[c]) continue;
    (*used)[c] = 1;
    mapping->push_back(c);
    EnumerateMappings(candidate, m, mapping, used, query_combos, result);
    mapping->pop_back();
    (*used)[c] = 0;
  }
}

}  // namespace

BruteForceResult BruteForceJoinability(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const Table& candidate) {
  BruteForceResult result;
  const size_t m = key_columns.size();
  if (m == 0 || m > candidate.NumColumns()) return result;

  std::unordered_set<std::string> query_combos;
  for (const auto& combo : ExtractKeyCombos(query, key_columns)) {
    query_combos.insert(ComboKey(combo));
  }
  if (query_combos.empty()) return result;

  std::vector<ColumnId> mapping;
  std::vector<char> used(candidate.NumColumns(), 0);
  EnumerateMappings(candidate, m, &mapping, &used, query_combos, &result);
  return result;
}

}  // namespace mate
