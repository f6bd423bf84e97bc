#include "storage/table.h"

#include <unordered_set>

#include "util/string_util.h"

namespace mate {

ColumnId Table::AddColumn(std::string column_name) {
  Column col;
  col.name = std::move(column_name);
  col.cells.resize(num_rows_);
  columns_.push_back(std::move(col));
  return static_cast<ColumnId>(columns_.size() - 1);
}

Status Table::AddColumnWithCells(std::string column_name,
                                 std::vector<std::string> cells) {
  if (cells.size() != num_rows_) {
    return Status::InvalidArgument("cell count does not match row count");
  }
  Column col;
  col.name = std::move(column_name);
  col.cells = std::move(cells);
  columns_.push_back(std::move(col));
  return Status::OK();
}

Status Table::ReplaceColumnCells(ColumnId c, std::vector<std::string> cells) {
  if (c >= columns_.size()) {
    return Status::OutOfRange("no such column");
  }
  if (cells.size() != num_rows_) {
    return Status::InvalidArgument("cell count does not match row count");
  }
  columns_[c].cells = std::move(cells);
  return Status::OK();
}

void Table::AppendEmptyRows(size_t n) {
  for (Column& col : columns_) col.cells.resize(num_rows_ + n);
  deleted_.resize(num_rows_ + n, false);
  num_rows_ += n;
  if (n > 0) trailing_deleted_rows_ = 0;
}

Status Table::DropColumn(ColumnId c) {
  if (c >= columns_.size()) {
    return Status::OutOfRange("no such column");
  }
  columns_.erase(columns_.begin() + c);
  return Status::OK();
}

Result<RowId> Table::AppendRow(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    return Status::InvalidArgument("cell count does not match column count");
  }
  if (trailing_deleted_rows_ > 0) {
    const RowId r = static_cast<RowId>(num_rows_ - trailing_deleted_rows_);
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].cells[r] = std::move(cells[c]);
    }
    deleted_[r] = false;
    --num_deleted_rows_;
    --trailing_deleted_rows_;
    return r;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].cells.push_back(std::move(cells[c]));
  }
  deleted_.push_back(false);
  return static_cast<RowId>(num_rows_++);
}

Status Table::DeleteRow(RowId r) {
  if (r >= num_rows_) return Status::OutOfRange("no such row");
  if (deleted_[r]) return Status::AlreadyExists("row already deleted");
  deleted_[r] = true;
  ++num_deleted_rows_;
  // Deleting the last live row joins it, and any tombstones just below it,
  // to the trailing run.
  while (trailing_deleted_rows_ < num_rows_ &&
         deleted_[num_rows_ - trailing_deleted_rows_ - 1]) {
    ++trailing_deleted_rows_;
  }
  return Status::OK();
}

Status Table::SetCell(RowId r, ColumnId c, std::string value) {
  if (r >= num_rows_ || c >= columns_.size()) {
    return Status::OutOfRange("no such cell");
  }
  columns_[c].cells[r] = std::move(value);
  return Status::OK();
}

ColumnId Table::FindColumn(std::string_view column_name) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].name == column_name) return static_cast<ColumnId>(c);
  }
  return kInvalidColumnId;
}

std::vector<std::string> Table::RowValues(RowId r) const {
  std::vector<std::string> values;
  values.reserve(columns_.size());
  for (const Column& col : columns_) values.push_back(col.cells[r]);
  return values;
}

size_t Table::ColumnCardinality(ColumnId c) const {
  std::unordered_set<std::string> distinct;
  for (RowId r = 0; r < num_rows_; ++r) {
    if (deleted_[r]) continue;
    distinct.insert(NormalizeValue(columns_[c].cells[r]));
  }
  return distinct.size();
}

size_t Table::PayloadBytes() const {
  size_t bytes = 0;
  for (const Column& col : columns_) {
    for (const std::string& cell : col.cells) bytes += cell.size();
  }
  return bytes;
}

}  // namespace mate
