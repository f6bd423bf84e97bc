#include "core/query_executor.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "index/index_shards.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mate {

namespace {

// One fetched PL item plus the distinct init-value it came from.
struct FetchedItem {
  PostingEntry entry;
  uint32_t init_value_idx;
};

struct TableCandidates {
  TableId table_id;
  std::vector<FetchedItem> items;
};

// Query-side state of Algorithm 1's initialization (§6.1, lines 3-6),
// computed once and read concurrently by every shard task.
struct PreparedQuery {
  size_t init_pos = 0;
  std::vector<std::vector<std::string>> combos;
  std::vector<BitVector> combo_keys;
  std::vector<std::string> init_values;
  std::vector<std::vector<uint32_t>> combos_of_value;
  /// posting_lists[v] is Lookup(init_values[v]) (nullptr when absent),
  /// resolved once here so S shard tasks don't repeat the string-keyed
  /// probes.
  std::vector<const PostingList*> posting_lists;
  /// Lookup of every combo value, combo-major: the lists the verifier reads
  /// a row's matching columns from.
  std::vector<const PostingList*> combo_lists;
  std::unordered_set<TableId> excluded;
  std::unordered_set<TableId> restricted;

  /// The posting lists of combo `combo_id`'s values, in key order.
  std::span<const PostingList* const> ComboLists(uint32_t combo_id) const {
    const size_t m = combos[combo_id].size();
    return std::span(combo_lists).subspan(combo_id * m, m);
  }
};

PreparedQuery PrepareQuery(const Table& query,
                           const std::vector<ColumnId>& key_columns,
                           const DiscoveryOptions& options,
                           const InvertedIndex& index) {
  PreparedQuery prep;
  prep.init_pos =
      SelectInitColumn(query, key_columns, options.init_strategy, &index);

  // Distinct key combos with their super keys.
  prep.combos = ExtractKeyCombos(query, key_columns);
  prep.combo_keys.reserve(prep.combos.size());
  for (const auto& combo : prep.combos) {
    prep.combo_keys.push_back(index.hash().MakeSuperKey(combo));
  }

  // Dictionary: distinct init value -> combo ids (Alg. 1 line 6).
  {
    std::unordered_map<std::string_view, uint32_t> value_idx;
    for (uint32_t combo_id = 0; combo_id < prep.combos.size(); ++combo_id) {
      const std::string& v = prep.combos[combo_id][prep.init_pos];
      auto [it, inserted] = value_idx.emplace(
          v, static_cast<uint32_t>(prep.init_values.size()));
      if (inserted) {
        prep.init_values.push_back(v);
        prep.combos_of_value.emplace_back();
      }
      prep.combos_of_value[it->second].push_back(combo_id);
    }
  }

  prep.posting_lists.reserve(prep.init_values.size());
  for (const std::string& v : prep.init_values) {
    prep.posting_lists.push_back(index.Lookup(v));
  }

  // The init position's lists were just resolved; look up the others.
  const size_t m = key_columns.size();
  prep.combo_lists.resize(prep.combos.size() * m);
  for (uint32_t v = 0; v < prep.init_values.size(); ++v) {
    for (const uint32_t combo_id : prep.combos_of_value[v]) {
      prep.combo_lists[combo_id * m + prep.init_pos] = prep.posting_lists[v];
    }
  }
  for (uint32_t combo_id = 0; combo_id < prep.combos.size(); ++combo_id) {
    for (size_t i = 0; i < m; ++i) {
      if (i == prep.init_pos) continue;
      prep.combo_lists[combo_id * m + i] =
          index.Lookup(prep.combos[combo_id][i]);
    }
  }

  prep.excluded.insert(options.exclude_tables.begin(),
                       options.exclude_tables.end());
  prep.restricted.insert(options.restrict_tables.begin(),
                         options.restrict_tables.end());
  return prep;
}

// Upper bound on the PL items the row loop would visit — the auto-parallel
// gate. List sizes only, no PL scan.
uint64_t EstimatePreparedPlItems(const PreparedQuery& prep) {
  uint64_t total = 0;
  for (const PostingList* pl : prep.posting_lists) {
    if (pl != nullptr) total += pl->size();
  }
  return total;
}

// One shard's (or one seed table's) private evaluation state: local heap,
// local mappings, local counters. Never touched by another task; merged in
// a fixed order afterwards.
struct ShardOutcome {
  explicit ShardOutcome(size_t k) : topk(k) {}

  TopKHeap<TableId> topk;
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  DiscoveryStats stats;
};

// Fetches the shard's slice of every probed posting list (Alg. 1 lines 4-5
// restricted to [range.begin, range.end)) and groups items by table.
// Postings are sorted by (table_id, row, column), so the slice is one
// contiguous run per PL.
std::vector<TableCandidates> FetchShardCandidates(const PreparedQuery& prep,
                                                  const ShardRange& range,
                                                  DiscoveryStats* stats) {
  const auto by_table_id = [](const PostingEntry& e, TableId t) {
    return e.table_id < t;
  };
  std::unordered_map<TableId, std::vector<FetchedItem>> by_table;
  for (uint32_t v = 0; v < prep.init_values.size(); ++v) {
    const PostingList* pl = prep.posting_lists[v];
    if (pl == nullptr) continue;
    const auto lo =
        std::lower_bound(pl->begin(), pl->end(), range.begin, by_table_id);
    const auto hi = std::lower_bound(lo, pl->end(), range.end, by_table_id);
    stats->pl_items_fetched += static_cast<uint64_t>(hi - lo);
    for (auto it = lo; it != hi; ++it) {
      if (prep.excluded.count(it->table_id)) continue;
      if (!prep.restricted.empty() && !prep.restricted.count(it->table_id)) {
        continue;
      }
      by_table[it->table_id].push_back({*it, v});
    }
  }
  stats->candidate_tables += by_table.size();

  // Evaluate promising tables first: PL-item count desc, table id asc.
  std::vector<TableCandidates> candidates;
  candidates.reserve(by_table.size());
  for (auto& [table_id, items] : by_table) {
    candidates.push_back({table_id, std::move(items)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const TableCandidates& a, const TableCandidates& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() > b.items.size();
              }
              return a.table_id < b.table_id;
            });
  return candidates;
}

// Per-table evaluation (Alg. 1 lines 7-22) over candidates[start, end)
// with a local heap. §6.2 pruning runs against the better of the local j_k
// and the caller's `floor` — both never exceed the final global j_k (a
// local heap holds the best k of a subset; the floor is the k-th score
// over tables evaluated in earlier rounds), so nothing pruned here could
// have survived the final merge. Returns true iff rule 1 broke out: the
// list is sorted by item count and thresholds only grow, so the shard is
// finished for good (the caller accounts for candidates beyond `end`).
// No floor over the full range is exactly the serial Algorithm 1.
bool EvaluateCandidates(const Corpus& corpus, const InvertedIndex& index,
                        const PreparedQuery& prep,
                        const DiscoveryOptions& options,
                        const std::vector<TableCandidates>& candidates,
                        size_t start, size_t end,
                        std::optional<int64_t> floor, ShardOutcome* out,
                        QueryTrace* trace = nullptr,
                        uint32_t trace_parent = QueryTrace::kNoParent,
                        uint64_t trace_tid = 0) {
  DiscoveryStats& stats = out->stats;
  TopKHeap<TableId>& topk = out->topk;
  const SuperKeyStore& superkeys = index.superkeys();
  MappingAccumulator acc;
  RowVerifier verifier;

  // Best provable score threshold right now (INT64_MIN = none yet).
  const auto prune_threshold = [&topk, floor] {
    int64_t threshold =
        floor.has_value() ? *floor : std::numeric_limits<int64_t>::min();
    if (topk.Full()) threshold = std::max(threshold, topk.KthScore());
    return threshold;
  };

  for (size_t cand_idx = start; cand_idx < end; ++cand_idx) {
    const TableCandidates& cand = candidates[cand_idx];
    const int64_t items_in_table = static_cast<int64_t>(cand.items.size());

    // Table filter rule 1 (line 9): tables arrive in decreasing PL-item
    // order, so once a table cannot beat the current j_k nothing later can.
    if (options.use_table_filters && items_in_table < prune_threshold()) {
      stats.tables_pruned_rule1 += end - cand_idx;
      if (trace != nullptr) {
        trace->AddCompleteSpan(
            "rule1_prune", trace_parent, trace->NowUs(), 0, trace_tid,
            "\"tables_pruned\":" + std::to_string(end - cand_idx));
      }
      return true;
    }

    ++stats.tables_evaluated;
    // The lazy corpus's materialization point: cells parse here, on first
    // touch, for evaluated candidates only. Keeping this access *after* the
    // rule-1 break above matters — pruned tables never materialize, which
    // is what lets a small query finish without paying for a cold giant
    // table it would only have pruned.
    //
    // The verifier itself reads posting lists, not cells; this access is
    // kept for what hangs off it — the lazy corpus's sticky load status
    // and the memory budget's residency accounting. Single-column keys
    // materialize *columnar*, only the candidate's distinct posting
    // columns — over a format-v3 backing a sliver of a giant table; multi-
    // column keys take the full-table path.
    MaterializeOutcome mat;
    const bool single_column_key =
        !prep.combos.empty() && prep.combos[0].size() == 1;
    std::vector<ColumnId> touched_columns;
    if (single_column_key) {
      // Sorted distinct column set: a wide candidate can carry thousands
      // of items over a handful of columns, and the former find-per-item
      // dedup was O(items * columns). The store materializes per column
      // under done-flags, so the order change is invisible to it.
      touched_columns.reserve(cand.items.size());
      for (const FetchedItem& item : cand.items) {
        touched_columns.push_back(item.entry.column_id);
      }
      std::sort(touched_columns.begin(), touched_columns.end());
      touched_columns.erase(
          std::unique(touched_columns.begin(), touched_columns.end()),
          touched_columns.end());
    }
    const uint64_t mat_start_us = trace != nullptr ? trace->NowUs() : 0;
    const Table& table =
        single_column_key
            ? corpus.MaterializeColumns(cand.table_id, touched_columns, &mat)
            : corpus.MaterializeTable(cand.table_id, &mat);
    if (mat.bytes_parsed > 0) {
      ++stats.tables_materialized;
      stats.cell_bytes_materialized += mat.bytes_parsed;
      if (mat.rematerialized) ++stats.tables_rematerialized;
    }
    if (trace != nullptr) {
      const uint64_t now = trace->NowUs();
      trace->AddCompleteSpan(
          "materialize", trace_parent, mat_start_us, now - mat_start_us,
          trace_tid,
          "\"table\":" + std::to_string(cand.table_id) +
              ",\"bytes_parsed\":" + std::to_string(mat.bytes_parsed) +
              ",\"parse_us\":" +
              std::to_string(
                  static_cast<uint64_t>(mat.parse_seconds * 1e6)));
    }
    const uint64_t rows_start_us = trace != nullptr ? trace->NowUs() : 0;
    const size_t num_columns = table.NumColumns();
    acc.Clear();
    int64_t rows_checked_here = 0;
    int64_t rows_matched_here = 0;  // r_match of rule 2
    bool pruned_mid_table = false;

    // The row loop runs gather -> probe -> walk. Items arrive grouped by
    // init value (FetchShardCandidates appends one PL slice at a time), so
    // each run shares one combo set; within a run, blocks of up to
    // kMaxProbeBatch rows are gathered and every combo's super key is
    // probed over the whole block in one SuperKeyStore::CoversBatch call.
    // Rule 2's mid-table prune semantics survive unchanged: probes are
    // side-effect free, items are still walked strictly in row order, every
    // counter (rows_checked, rows_sent_to_verification, value_comparisons)
    // advances only for walked items, and a prune simply discards the
    // unused tail of the block's masks.
    const size_t num_items = cand.items.size();
    std::array<RowId, SuperKeyStore::kMaxProbeBatch> block_rows;
    std::vector<uint32_t> combo_masks;
    size_t run_begin = 0;
    while (run_begin < num_items && !pruned_mid_table) {
      const uint32_t value_idx = cand.items[run_begin].init_value_idx;
      size_t run_end = run_begin + 1;
      while (run_end < num_items &&
             cand.items[run_end].init_value_idx == value_idx) {
        ++run_end;
      }
      const std::vector<uint32_t>& combo_ids =
          prep.combos_of_value[value_idx];

      for (size_t block = run_begin; block < run_end && !pruned_mid_table;
           block += SuperKeyStore::kMaxProbeBatch) {
        const size_t count =
            std::min(SuperKeyStore::kMaxProbeBatch, run_end - block);
        if (options.use_row_filter) {
          for (size_t i = 0; i < count; ++i) {
            block_rows[i] = cand.items[block + i].entry.row_id;
          }
          combo_masks.resize(combo_ids.size());
          for (size_t c = 0; c < combo_ids.size(); ++c) {
            // Row filter (§6.3, line 18): the combo's super key must be
            // masked by each row's super key; one batched probe per combo.
            combo_masks[c] =
                superkeys.CoversBatch(cand.table_id, block_rows.data(),
                                      count, prep.combo_keys[combo_ids[c]]);
          }
        }

        for (size_t i = 0; i < count; ++i) {
          const FetchedItem& item = cand.items[block + i];
          // Table filter rule 2 (line 14): even if every remaining row is
          // joinable, the table cannot beat the worst top-k entry.
          if (options.use_table_filters &&
              items_in_table - rows_checked_here + rows_matched_here <
                  prune_threshold()) {
            ++stats.tables_pruned_rule2;
            pruned_mid_table = true;
            break;
          }
          ++rows_checked_here;
          ++stats.rows_checked;

          const RowId row = item.entry.row_id;
          bool row_passed_filter = false;
          bool row_matched = false;
          for (size_t c = 0; c < combo_ids.size(); ++c) {
            if (options.use_row_filter &&
                ((combo_masks[c] >> i) & 1u) == 0) {
              continue;
            }
            const uint32_t combo_id = combo_ids[c];
            row_passed_filter = true;
            if (verifier.VerifyCombo(prep.ComboLists(combo_id), combo_id,
                                     cand.table_id, row, num_columns,
                                     item.entry.column_id, prep.init_pos,
                                     &acc, &stats.value_comparisons)) {
              row_matched = true;
            }
          }
          if (row_passed_filter) ++stats.rows_sent_to_verification;
          if (row_matched) ++stats.rows_true_positive;
          // r_match: with the super-key filter the paper counts filter
          // survivors (cheap, optimistic); without it, exact matches.
          if (options.use_row_filter ? row_passed_filter : row_matched) {
            ++rows_matched_here;
          }
        }
      }
      run_begin = run_end;
    }

    if (trace != nullptr) {
      const uint64_t now = trace->NowUs();
      trace->AddCompleteSpan(
          "row_loop", trace_parent, rows_start_us, now - rows_start_us,
          trace_tid,
          "\"table\":" + std::to_string(cand.table_id) +
              ",\"rows_checked\":" + std::to_string(rows_checked_here));
    }
    if (pruned_mid_table) continue;
    const int64_t j = acc.MaxJoinability();
    if (j > 0) {
      if (topk.Add(cand.table_id, j)) {
        out->best_mappings[cand.table_id] = acc.BestMapping();
      }
    }
  }
  return false;
}

// Runs fn(0..n) over min(`fanout`, n) strided pool tasks; inline when the
// fan-out degenerates. The pool's Wait() is global, so this must only run
// from a top-level (non-pool) thread.
void RunStrided(ThreadPool* pool, size_t fanout, size_t n,
                const std::function<void(size_t)>& fn) {
  fanout = std::min(fanout, n);
  if (pool == nullptr || fanout <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (size_t w = 0; w < fanout; ++w) {
    pool->Submit([&fn, w, fanout, n] {
      for (size_t i = w; i < n; i += fanout) fn(i);
    });
  }
  pool->Wait();
}

}  // namespace

uint64_t QueryExecutor::EstimatePlItems(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const DiscoveryOptions& options) const {
  if (key_columns.empty() || options.k <= 0) return 0;
  const size_t init_pos =
      SelectInitColumn(query, key_columns, options.init_strategy, index_);
  // PrepareQuery derives its distinct init values from the distinct key
  // combos, but the value set is identical to the distinct live values of
  // the init column itself — every live row's combo is in the combo set and
  // vice versa — so this skips the tuple hashing and super-key work and
  // matches EstimatePreparedPlItems(prep) exactly.
  const ColumnId init_column = key_columns[init_pos];
  std::unordered_set<std::string_view> seen;
  uint64_t total = 0;
  for (RowId r = 0; r < query.NumRows(); ++r) {
    if (query.IsRowDeleted(r)) continue;
    const std::string& v = query.cell(r, init_column);
    if (!seen.insert(v).second) continue;
    const PostingList* pl = index_->Lookup(v);
    if (pl != nullptr) total += pl->size();
  }
  return total;
}

DiscoveryResult QueryExecutor::Discover(
    const Table& query, const std::vector<ColumnId>& key_columns,
    const DiscoveryOptions& options, const ExecutorOptions& exec,
    ThreadPool* pool) const {
  Stopwatch timer;
  QueryTrace* const trace = exec.trace;
  const uint32_t troot = exec.trace_parent;
  DiscoveryResult result;
  DiscoveryStats& stats = result.stats;
  if (key_columns.empty() || options.k <= 0) {
    stats.runtime_seconds = timer.ElapsedSeconds();
    return result;
  }
  const size_t k = static_cast<size_t>(options.k);

  ScopedSpan prepare_span(trace, "prepare", troot);
  const PreparedQuery prep =
      PrepareQuery(query, key_columns, options, *index_);
  prepare_span.End();

  // ---- Resolve the execution shape -----------------------------------
  const unsigned pool_width = pool != nullptr ? pool->num_threads() : 1;
  unsigned width = 1;
  if (exec.intra_query_threads == 0) {
    if (pool_width > 1 &&
        EstimatePreparedPlItems(prep) >= kAutoParallelMinItems) {
      width = pool_width;
    }
  } else {
    width = std::min(exec.intra_query_threads, pool_width);
  }
  const size_t requested_shards =
      exec.num_shards != 0 ? exec.num_shards : width;
  // The serial path (every MateSearch::Discover and per-query batch
  // execution) must not pay the O(NumTables) weight walk a real plan
  // costs: one trivial all-tables range is enough.
  std::vector<ShardRange> ranges;
  if (requested_shards <= 1) {
    if (corpus_->NumTables() > 0) {
      ranges.push_back({0, static_cast<TableId>(corpus_->NumTables())});
    }
  } else {
    ranges = IndexShards::Build(*corpus_, requested_shards).ranges();
  }
  const size_t num_shards = ranges.size();  // 0 on an empty corpus

  // ---- Fetch, shard-local --------------------------------------------
  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) outcomes.emplace_back(k);
  std::vector<std::vector<TableCandidates>> shard_candidates(num_shards);
  ScopedSpan fetch_span(trace, "fetch", troot);
  RunStrided(pool, width, num_shards, [&](size_t s) {
    // Shard spans render on track s + 1 (track 0 is the query's main line).
    ScopedSpan shard_span(trace, "fetch_shard", fetch_span.id(), s + 1);
    shard_candidates[s] =
        FetchShardCandidates(prep, ranges[s], &outcomes[s].stats);
  });
  fetch_span.End();

  // ---- Round-based evaluation with a shared pruning floor ------------
  // Serial Algorithm 1 prunes against one shared heap whose j_k rises as
  // evaluation proceeds; S isolated local heaps would each have to fill
  // before §6.2 fires and would then prune against much weaker thresholds
  // (at full OD scale that means every candidate table gets evaluated —
  // 2-3x the serial work). Instead the shards advance in lockstep rounds
  // of k candidates each: between rounds, a barrier folds every local heap
  // into one global heap and publishes its k-th score as the shared floor.
  // The floor is exactly the serial heap's j_k over the evaluated prefix —
  // deterministic (round boundaries depend only on the shard plan, never
  // the schedule) and always <= the final j_k, so pruning with it cannot
  // drop a final top-k table. Round one evaluates <= S*k tables unpruned
  // (serial evaluates >= k before its heap fills, typically a comparable
  // number); from round two on, rule 1 usually breaks every shard at once.
  ScopedSpan evaluate_span(trace, "evaluate", troot);
  if (num_shards == 1) {
    EvaluateCandidates(*corpus_, *index_, prep, options, shard_candidates[0],
                       0, shard_candidates[0].size(), /*floor=*/std::nullopt,
                       &outcomes[0], trace, evaluate_span.id());
  } else if (num_shards > 1) {
    std::vector<size_t> pos(num_shards, 0);
    std::vector<size_t> chunk_end(num_shards, 0);
    // One flag byte per shard, each written by exactly one task per round.
    std::vector<unsigned char> broke(num_shards, 0);
    std::optional<int64_t> floor;
    std::vector<size_t> active;
    // ~k tables across all shards per round — the cadence at which the
    // serial heap's j_k moves. Wider chunks would evaluate whole rounds
    // against a stale floor and forfeit most of rule 2's mid-table cuts;
    // the barrier itself is microseconds against millisecond rounds.
    const size_t chunk =
        std::max<size_t>(1, (k + num_shards - 1) / num_shards);
    while (true) {
      active.clear();
      for (size_t s = 0; s < num_shards; ++s) {
        if (!broke[s] && pos[s] < shard_candidates[s].size()) {
          active.push_back(s);
        }
      }
      if (active.empty()) break;
      RunStrided(pool, width, active.size(), [&](size_t i) {
        const size_t s = active[i];
        ScopedSpan shard_span(trace, "evaluate_shard", evaluate_span.id(),
                              s + 1);
        const std::vector<TableCandidates>& cands = shard_candidates[s];
        chunk_end[s] = std::min(pos[s] + chunk, cands.size());
        broke[s] = EvaluateCandidates(*corpus_, *index_, prep, options,
                                      cands, pos[s], chunk_end[s], floor,
                                      &outcomes[s], trace, shard_span.id(),
                                      s + 1)
                       ? 1
                       : 0;
      });
      TopKHeap<TableId> global(k);
      for (const size_t s : active) {
        if (broke[s]) {
          // Rule 1 terminates the whole shard, not just the chunk.
          outcomes[s].stats.tables_pruned_rule1 +=
              shard_candidates[s].size() - chunk_end[s];
        } else {
          pos[s] = chunk_end[s];
        }
      }
      for (const ShardOutcome& out : outcomes) {
        for (const auto& entry : out.topk.SortedDesc()) {
          global.Add(entry.id, entry.score);
        }
      }
      if (global.Full()) floor = global.KthScore();
    }
  }

  evaluate_span.End();

  // ---- Deterministic merge (score desc, table id asc) ----------------
  // Each local heap holds the best k of its shard, so the union contains
  // the global top-k; re-offering every entry to one heap applies the
  // exact serial tie-break regardless of arrival order.
  ScopedSpan merge_span(trace, "merge", troot);
  const size_t fanout = std::max<size_t>(std::min<size_t>(width, num_shards),
                                         1);
  TopKHeap<TableId> merged(k);
  std::unordered_map<TableId, std::vector<ColumnId>> best_mappings;
  for (ShardOutcome& out : outcomes) {
    stats.Merge(out.stats);
    for (const auto& entry : out.topk.SortedDesc()) {
      merged.Add(entry.id, entry.score);
    }
    for (auto& [table_id, mapping] : out.best_mappings) {
      best_mappings.emplace(table_id, std::move(mapping));
    }
  }
  result.top_k = FinalizeTopK(merged, best_mappings);
  stats.shards_used = num_shards > 0 ? num_shards : 1;
  stats.fanout_threads = fanout;
  stats.runtime_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace mate
