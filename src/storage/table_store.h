// TableStore — the residency layer under a Corpus. It decouples "the corpus
// exists and has this shape" from "this table's cells are resident":
//
//   * a *resident* store owns fully materialized Tables (the classic
//     in-memory corpus: built from CSVs, adopted, or eagerly deserialized);
//   * a *lazy* store is built from a corpus-format shape header plus the
//     mmap'd file image: names, column names, row counts, and tombstone
//     bitmaps are known up front, while cells parse on first access —
//     thread-safe via a per-table latch, so concurrent queries (and the
//     session's background warmer) race safely and parse each extent once.
//
// Residency is buffer-manager shaped, not monotone:
//
//   * *Columnar sub-table materialization* — the backing directory
//     carries per-column extents, so GetColumns(t, cols) parses just the
//     touched columns of a table into a shape-complete Table whose
//     untouched columns stay empty. Single-column-key discovery
//     (the evaluator reads only each PL item's fixed column) rides this to
//     touch a sliver of a giant table instead of the whole blob.
//   * *Byte-budget LRU eviction* — SetBudget(bytes) arms a residency
//     budget (0 = unlimited, today's behavior); EvictToBudget() drops the
//     least-recently-touched unpinned tables until the resident extent
//     bytes fit again. Eviction must only run at idle points (mirroring the
//     mutation/quiesce contract: never under an in-flight query or the
//     warmer — mate::Session calls it between queries). An evicted table
//     re-parses on its next touch under the same per-table latch, so
//     re-touch is bit-identical. With a budget armed the mmap stays alive
//     for re-parses; only the unbudgeted store releases it once every
//     table is resident. Tables handed out via Mutable() are pinned:
//     in-memory edits are never silently lost to an evict + re-parse.
//
// The discovery loop (Algorithm 1, §6) only ever touches the candidate
// tables the index surfaces, so a lake of thousands of tables pays
// materialization cost only for the handful a query evaluates — the same
// access-locality argument storage engines make for lazy page/record
// materialization.
//
// Failure model: a table whose cell blob is corrupt materializes as a
// *shape-complete stub* (declared columns and row count, empty cells, the
// header's tombstones) so no caller indexes out of bounds, and the first
// error is latched into load_status() with the section and byte offset —
// a corrupt table is therefore never silently empty: the sticky status
// names it, and Session surfaces it from every query path.
//
// Thread-safety: Get/GetColumns/EnsureTable/MaterializeAll/shape accessors
// and the warmer may run concurrently. Add/Mutable/EvictToBudget (and
// moving the store) require the store to be otherwise idle, mirroring
// Session's mutation contract.

#ifndef MATE_STORAGE_TABLE_STORE_H_
#define MATE_STORAGE_TABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/table.h"
#include "storage/types.h"
#include "util/mapped_file.h"
#include "util/status.h"

namespace mate {

/// Everything the corpus-format table directory records about one table:
/// the full shape and the byte extent of its cell blob in the backing
/// image.
struct TableShape {
  std::string name;
  std::vector<std::string> column_names;
  uint64_t num_rows = 0;
  uint64_t num_deleted_rows = 0;
  /// Tombstones, bit r of byte r/8; (num_rows + 7) / 8 bytes.
  std::string deleted_bitmap;
  /// Absolute byte offset / size of the cell blob in the backing image.
  uint64_t cell_offset = 0;
  uint64_t cell_bytes = 0;
  /// Per-column blob sizes, one per column; they sum to cell_bytes.
  std::vector<uint64_t> column_bytes;
};

/// What one Get/GetColumns call actually did: the on-disk extent bytes it
/// parsed (0 on a residency hit) and whether the table had been evicted
/// before — the evaluator folds these into DiscoveryStats.
struct MaterializeOutcome {
  uint64_t bytes_parsed = 0;
  bool rematerialized = false;
  /// Wall time this call spent inside the cell parsers (0.0 on a residency
  /// hit or when the call waited on another thread's parse — waiting shows
  /// up in bytes_parsed == 0 too). Query tracing splits "materialize" span
  /// time into parse work vs. latch waits with this.
  double parse_seconds = 0.0;
};

/// Residency gauges + cumulative counters for the memory-governance layer
/// (surfaced through `mate_cli stats` and the memory_budget bench). Byte
/// figures are on-disk directory extents, so they are deterministic for a
/// given access pattern.
struct ResidencyStats {
  uint64_t budget_bytes = 0;         // 0 = unlimited
  uint64_t resident_bytes = 0;       // extent bytes currently resident
  uint64_t peak_resident_bytes = 0;  // high-water mark of resident_bytes
  uint64_t bytes_materialized = 0;   // cumulative extent bytes parsed
  uint64_t bytes_evicted = 0;        // cumulative extent bytes evicted
  uint64_t evictions = 0;            // tables evicted
  uint64_t rematerializations = 0;   // tables re-parsed after an eviction
  uint64_t tables_resident = 0;      // partially or fully resident
  uint64_t partial_tables = 0;       // resident with only some columns
};

class TableStore {
 public:
  /// An empty resident store (Add tables to it).
  TableStore();
  ~TableStore();

  TableStore(TableStore&&) noexcept;
  TableStore& operator=(TableStore&&) noexcept;
  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  /// A lazy store over `backing`: the shapes come from a parsed table
  /// directory whose cell extents the parser has already bounds-checked
  /// against the image. Cells materialize per table (or per column) on
  /// first access; without a budget the mapping is released once every
  /// table is fully resident.
  static TableStore Lazy(std::vector<TableShape> shapes, MappedFile backing);

  size_t NumTables() const;

  /// Appends a resident table. Requires the store to be idle.
  TableId Add(Table table);

  // ---- cells (materialize on demand) --------------------------------

  /// The table, fully materializing its cells on first access (blocking;
  /// other threads asking for the same table wait on the per-table latch).
  /// A failed parse yields a shape-complete stub and latches load_status().
  const Table& Get(TableId t, MaterializeOutcome* outcome = nullptr) const;

  /// The table with at least `columns` materialized: only the missing
  /// requested columns parse; cells of columns never requested read as
  /// empty strings. Safe to mix with Get(): a later full access parses
  /// exactly the remaining columns.
  const Table& GetColumns(TableId t, const std::vector<ColumnId>& columns,
                          MaterializeOutcome* outcome = nullptr) const;

  /// Get + error channel: fully materializes `t` and returns the store's
  /// sticky status, so callers that can propagate errors see the parse
  /// failure (with section + byte offset) instead of a stub.
  Status EnsureTable(TableId t) const;

  /// Materializes every table (the warmer's body; also what Save uses).
  /// Returns the sticky status — OK iff every cell blob parsed. Ignores
  /// the budget; Session re-evicts afterwards when one is armed.
  Status MaterializeAll() const;

  /// A self-contained callable running MaterializeAll: it shares ownership
  /// of the store's state, so a background warmer stays valid even if the
  /// store (or its owning Corpus/Session) is moved while it runs.
  std::function<Status()> MakeWarmer() const;

  /// Mutable access materializes first (§5.4 maintenance edits need the
  /// cells) and *pins* the table: a pinned table is never evicted, so
  /// edits cannot be lost to a re-parse. Requires the store to be
  /// otherwise idle.
  Table* Mutable(TableId t);

  // ---- shape (never materializes) -----------------------------------

  const std::string& table_name(TableId t) const;
  size_t table_num_columns(TableId t) const;
  const std::string& column_name(TableId t, ColumnId c) const;
  size_t table_num_rows(TableId t) const;
  size_t table_num_live_rows(TableId t) const;

  // ---- residency ----------------------------------------------------

  /// Arms the byte budget (0 = unlimited). Set it before queries run —
  /// an unbudgeted store releases its backing at full residency, after
  /// which eviction has nothing to re-parse from and becomes a no-op.
  void SetBudget(uint64_t bytes);

  /// Drops least-recently-touched unpinned tables until resident extent
  /// bytes fit the budget. No-op when the budget is 0 (or the backing is
  /// gone). MUST only be called at an idle point: no in-flight Get /
  /// GetColumns / warmer (mirrors the mutation contract).
  void EvictToBudget() const;

  ResidencyStats residency() const;

  /// Directory extent bytes of `t` currently resident (0 when cold; the
  /// full cell_bytes when fully materialized). Resident (non-lazy) tables
  /// report their serialized cell size.
  uint64_t table_resident_bytes(TableId t) const;
  /// Total directory extent bytes of `t` (its serialized cell size).
  uint64_t table_cell_bytes(TableId t) const;

  /// True once `t` holds any materialized cells (partial counts).
  bool IsResident(TableId t) const;
  size_t tables_resident() const;
  bool fully_resident() const;

  /// Sticky first materialization error (section + byte offset), OK while
  /// every parse so far has succeeded.
  Status load_status() const;

 private:
  struct Impl;
  // Shared with warmers so background materialization survives moves.
  std::shared_ptr<Impl> impl_;
};

/// Parses one table's cell blob (cells column-major, each length-prefixed)
/// into `out`, which must already carry the shape's name and columns;
/// appends the rows and applies the tombstone bitmap. Errors name the table
/// and the absolute byte offset within the `image_size`-byte image (the
/// blob starts at `shape.cell_offset`).
Status ParseTableCells(const TableShape& shape, std::string_view blob,
                       uint64_t image_size, Table* out);

/// Parses one column's cells (`shape.num_rows` length-prefixed values) out
/// of its `blob` slice, which starts at absolute offset `blob_offset` in
/// the image. Errors name the table, the column, and the byte offset.
Status ParseColumnCells(const TableShape& shape, ColumnId column,
                        std::string_view blob, uint64_t blob_offset,
                        uint64_t image_size,
                        std::vector<std::string>* cells);

/// Serializes `table`'s cells in the same blob encoding.
void AppendTableCells(const Table& table, std::string* out);

/// Byte size AppendTableCells would append — the directory's cell_bytes.
uint64_t TableCellBytes(const Table& table);

/// Byte size of column `c`'s slice of that blob — the directory's
/// per-column extent.
uint64_t TableColumnCellBytes(const Table& table, ColumnId c);

}  // namespace mate

#endif  // MATE_STORAGE_TABLE_STORE_H_
