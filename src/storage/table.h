// In-memory relational table with string cells — the unit stored in a corpus
// (data lake) and the unit returned by join discovery. Row deletion is
// tombstone-based so row ids stay stable for the inverted index (§5.4);
// appends refill the trailing tombstones, so delete -> append churn does not
// grow the table.

#ifndef MATE_STORAGE_TABLE_H_
#define MATE_STORAGE_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace mate {

class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return num_rows_; }

  /// Rows not marked deleted.
  size_t NumLiveRows() const { return num_rows_ - num_deleted_rows_; }

  /// Appends an empty-named or named column. Existing rows get empty cells.
  ColumnId AddColumn(std::string column_name);

  /// Appends a column with `column_name` and per-row `cells`; the cell count
  /// must equal NumRows().
  Status AddColumnWithCells(std::string column_name,
                            std::vector<std::string> cells);

  /// Replaces every cell of existing column `c` in one move; the cell count
  /// must equal NumRows(). The residency layer uses this to install a
  /// lazily parsed column into a shape-complete table without touching its
  /// sibling columns.
  Status ReplaceColumnCells(ColumnId c, std::vector<std::string> cells);

  /// Appends `n` rows of empty cells (none tombstoned) — bulk skeleton
  /// construction for shape stubs, O(columns) amortized instead of the
  /// per-row AppendRow loop.
  void AppendEmptyRows(size_t n);

  /// Removes column `c`, shifting later column ids down by one.
  Status DropColumn(ColumnId c);

  /// Adds a row; `cells` must have exactly NumColumns() entries. Reuses the
  /// lowest id of the trailing run of tombstoned rows when there is one
  /// (its old cells are dropped), else appends. Returns the row's id. Live
  /// row ids never change and NumRows() never shrinks. An index over this
  /// table must have dropped a tombstoned row's postings before the next
  /// AppendRow (InvertedIndex::DeleteRow).
  Result<RowId> AppendRow(std::vector<std::string> cells);

  /// Tombstones row `r`; the row id remains allocated and IsRowDeleted(r)
  /// becomes true. Its cells stay readable until AppendRow reuses the slot.
  Status DeleteRow(RowId r);

  bool IsRowDeleted(RowId r) const { return deleted_[r]; }

  /// Raw cell text as ingested.
  const std::string& cell(RowId r, ColumnId c) const {
    return columns_[c].cells[r];
  }

  Status SetCell(RowId r, ColumnId c, std::string value);

  const std::string& column_name(ColumnId c) const {
    return columns_[c].name;
  }

  /// Index of the column named `column_name`, or kInvalidColumnId.
  ColumnId FindColumn(std::string_view column_name) const;

  /// The live cells of row `r` in column order.
  std::vector<std::string> RowValues(RowId r) const;

  /// Number of distinct normalized values in column `c` over live rows —
  /// the cardinality used by the init-column heuristic (§6.1).
  size_t ColumnCardinality(ColumnId c) const;

  /// Total bytes of cell payload (for index sizing stats).
  size_t PayloadBytes() const;

 private:
  struct Column {
    std::string name;
    std::vector<std::string> cells;
  };

  std::string name_;
  std::vector<Column> columns_;
  std::vector<bool> deleted_;
  size_t num_rows_ = 0;
  size_t num_deleted_rows_ = 0;
  // Length of the run of tombstoned rows ending at the last row.
  size_t trailing_deleted_rows_ = 0;
};

}  // namespace mate

#endif  // MATE_STORAGE_TABLE_H_
