// The MATE index (§5): the classic single-attribute inverted index
// (value -> posting list of (table, column, row)) extended with one super
// key per table row. Supports the full §5.4 maintenance surface: table/row
// inserts, column adds, cell updates, and deletes.
//
// The index stores only normalized values; callers normalize with
// NormalizeValue before probing (query-side helpers do this already).

#ifndef MATE_INDEX_INVERTED_INDEX_H_
#define MATE_INDEX_INVERTED_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hash/hash_function.h"
#include "index/posting.h"
#include "index/superkey_store.h"
#include "storage/corpus.h"
#include "storage/value_dictionary.h"

namespace mate {

class InvertedIndex {
 public:
  /// An index with a given super-key hash. Use BuildIndex (index_builder.h)
  /// to construct and populate one from a corpus.
  explicit InvertedIndex(std::unique_ptr<RowHashFunction> hash);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Posting list of a normalized value, or nullptr if absent.
  const PostingList* Lookup(std::string_view normalized) const;

  const SuperKeyStore& superkeys() const { return superkeys_; }
  const RowHashFunction& hash() const { return *hash_; }
  size_t hash_bits() const { return hash_->hash_bits(); }

  /// Corpus statistics the hash was parameterized with (set by
  /// BuildIndexWithReport, the index loader and Session::ResetHash); empty
  /// (num_cells == 0) when the hash used none. SaveIndex persists exactly
  /// these, so a reload rebuilds the same hash.
  const CorpusStats& corpus_stats() const { return corpus_stats_; }
  void set_corpus_stats(const CorpusStats& stats) { corpus_stats_ = stats; }

  const ValueDictionary& dictionary() const { return dictionary_; }

  /// Total posting entries across all lists.
  size_t NumPostingEntries() const { return num_posting_entries_; }
  /// Distinct values with a posting list (the loader streams exactly this
  /// many lists in phase 2; stats/bench reporting).
  size_t NumPostingLists() const { return postings_.size(); }

  /// Approximate bytes: postings + dictionary + super keys.
  size_t MemoryBytes() const;
  size_t PostingBytes() const {
    return num_posting_entries_ * sizeof(PostingEntry);
  }
  size_t SuperKeyBytes() const { return superkeys_.MemoryBytes(); }

  /// Swaps in a different super-key hash and recomputes every row's super
  /// key (optionally with `num_threads` workers — tables are disjoint, so
  /// re-keying parallelizes perfectly). Posting lists and dictionary are
  /// hash-independent and untouched. This is how the Table 2/3 hash sweeps
  /// re-key one index instead of rebuilding it per hash function.
  Status ResetHash(const Corpus& corpus,
                   std::unique_ptr<RowHashFunction> new_hash,
                   unsigned num_threads = 1);

  /// Recomputes every row's super key with the current hash (the parallel
  /// hashing pass behind ResetHash and the parallel index build).
  /// `num_threads` 0 = hardware concurrency.
  Status RebuildSuperKeys(const Corpus& corpus, unsigned num_threads = 1);

  /// Recomputes the super keys of tables [begin, end) from the corpus.
  /// Thread-safe for disjoint table ranges once the store is pre-sized.
  void RehashTableRange(const Corpus& corpus, TableId begin, TableId end);

  /// Adds the posting entries of table `t` without touching super keys
  /// (builder fast path; pair with RebuildSuperKeys).
  Status InsertTablePostingsOnly(const Corpus& corpus, TableId t);

  // ---- §5.4 index maintenance ---------------------------------------
  // All methods take the corpus in its *post-edit* state unless noted.

  /// Indexes a table just added to the corpus.
  Status InsertTable(const Corpus& corpus, TableId t);

  /// Indexes a row just appended to table `t`.
  Status InsertRow(const Corpus& corpus, TableId t, RowId r);

  /// Indexes a column just appended to table `t` (id = last column): adds
  /// its PL items and ORs its signatures into the existing row super keys.
  Status AddAppendedColumn(const Corpus& corpus, TableId t);

  /// Re-indexes cell (t, r, c) whose previous normalized value was
  /// `old_normalized`; rehashes the row's super key from scratch.
  Status UpdateCell(const Corpus& corpus, TableId t, RowId r, ColumnId c,
                    std::string_view old_normalized);

  /// Removes the PL items of row (t, r) and zeroes its super key. The
  /// corpus row may be tombstoned before or after this call (tombstones
  /// keep cells readable), but this call must come before the next
  /// Table::AppendRow on table `t`: that append may reuse the slot, and
  /// query verification reads row contents from the posting lists.
  Status DeleteRow(const Corpus& corpus, TableId t, RowId r);

  /// Removes all PL items of table `t`.
  Status DeleteTable(const Corpus& corpus, TableId t);

  /// Handles a column drop: `removed_cells` holds the dropped column's cell
  /// text per row, `dropped` its old column id; the corpus table has already
  /// been edited. Later columns' PL items are re-keyed and every row's super
  /// key is rehashed (§5.4: a column delete triggers a table-local rehash).
  Status DropColumn(const Corpus& corpus, TableId t, ColumnId dropped,
                    const std::vector<std::string>& removed_cells);

  // ---- internals shared with the builder/loader ----------------------

  /// Adds one posting entry (kept sorted) for an already-normalized value.
  void AddPosting(std::string_view normalized, PostingEntry entry);

  SuperKeyStore* mutable_superkeys() { return &superkeys_; }

  /// Iterates all (value_id, posting list) pairs; order unspecified.
  template <typename Fn>
  void ForEachPostingList(Fn&& fn) const {
    for (const auto& [value_id, list] : postings_) fn(value_id, list);
  }

 private:
  // Removes entry from the PL of `normalized` (no-op if absent).
  void RemovePosting(std::string_view normalized, const PostingEntry& entry);

  // Recomputes the super key of (t, r) from the corpus row.
  void RehashRow(const Corpus& corpus, TableId t, RowId r);

  std::unique_ptr<RowHashFunction> hash_;
  ValueDictionary dictionary_;
  std::unordered_map<ValueId, PostingList> postings_;
  SuperKeyStore superkeys_;
  size_t num_posting_entries_ = 0;
  CorpusStats corpus_stats_;

  friend class IndexLoader;
};

}  // namespace mate

#endif  // MATE_INDEX_INVERTED_INDEX_H_
