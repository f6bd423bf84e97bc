#include "storage/table_store.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "util/coding.h"
#include "util/stopwatch.h"

namespace mate {

namespace {

// Rebuilds a table of `shape` with every cell empty — the skeleton partial
// materialization fills column by column, and what a failed blob parse
// leaves behind. Shape-complete (columns, row count, tombstones), so
// downstream cell accesses stay in bounds; the sticky status is what makes
// a failure visible.
Table MakeShapeStub(const TableShape& shape) {
  Table stub(shape.name);
  for (const std::string& column : shape.column_names) stub.AddColumn(column);
  stub.AppendEmptyRows(static_cast<size_t>(shape.num_rows));
  for (uint64_t b = 0; b < shape.deleted_bitmap.size(); ++b) {
    if (shape.deleted_bitmap[b] == 0) continue;
    for (uint64_t r = b * 8; r < std::min(b * 8 + 8, shape.num_rows); ++r) {
      if ((shape.deleted_bitmap[b] >> (r % 8)) & 1) {
        (void)stub.DeleteRow(static_cast<RowId>(r));
      }
    }
  }
  return stub;
}

}  // namespace

struct TableStore::Impl {
  // Residency state of one lazy slot. `state` is published with release
  // order after the slot's table writes; the fast path and the shape
  // accessors acquire-load it to decide between the header and the live
  // table (which Mutable may have reshaped). Everything non-atomic is
  // guarded by `mu`.
  struct Slot {
    std::mutex mu;
    // cols_done[c] != 0 once column c's cells are parsed (or stubbed).
    std::vector<unsigned char> cols_done;
    bool pinned = false;
    bool was_evicted = false;
    // 0 = cold (shape header only), 1 = partial (shape-complete table,
    // some columns parsed), 2 = fully resident.
    std::atomic<uint8_t> state{0};
    // Directory extent bytes this slot holds resident.
    std::atomic<uint64_t> resident_bytes{0};
    // LRU clock stamp of the last Get/GetColumns touch.
    std::atomic<uint64_t> last_touch{0};
  };

  // Slots [0, num_lazy) are backed by `shapes`; anything beyond was Add'ed
  // resident. The vector is sized once at Lazy() — concurrent materializers
  // write distinct slots and never resize, so element addresses are stable.
  std::vector<Table> tables;
  std::vector<TableShape> shapes;
  std::unique_ptr<Slot[]> slots;
  MappedFile backing;
  size_t num_lazy = 0;
  uint64_t image_size = 0;
  std::atomic<uint64_t> budget{0};
  std::atomic<uint64_t> resident_bytes{0};
  std::atomic<uint64_t> peak_resident_bytes{0};
  std::atomic<uint64_t> bytes_materialized{0};
  std::atomic<uint64_t> bytes_evicted{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> rematerializations{0};
  std::atomic<uint64_t> clock{0};
  std::atomic<size_t> full_count{0};
  std::atomic<size_t> touched_count{0};
  std::atomic<bool> has_error{false};
  mutable std::mutex mu;  // guards `error` and the backing release
  Status error;

  bool SlotResident(TableId t) const {
    return t >= num_lazy ||
           slots[t].state.load(std::memory_order_acquire) != 0;
  }

  void Touch(Slot& slot) {
    slot.last_touch.store(
        clock.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }

  void LatchError(const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!has_error.load(std::memory_order_relaxed)) {
      error = status;
      has_error.store(true, std::memory_order_release);
    }
  }

  // Accounts `bytes` of newly resident extent and maintains the honest
  // high-water mark (the memory_budget bench's peak gate reads it).
  void AddResidentBytes(Slot& slot, uint64_t bytes) {
    slot.resident_bytes.fetch_add(bytes, std::memory_order_relaxed);
    bytes_materialized.fetch_add(bytes, std::memory_order_relaxed);
    const uint64_t now =
        resident_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_resident_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_resident_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  // The thread whose slot completes the set releases the mapping — but
  // only without a budget: an armed budget needs the image alive so
  // evicted tables can re-parse.
  void OnSlotFull(Slot& slot) {
    slot.state.store(2, std::memory_order_release);
    if (full_count.fetch_add(1, std::memory_order_acq_rel) + 1 == num_lazy &&
        budget.load(std::memory_order_relaxed) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      backing.Release();
    }
  }

  // Under slot.mu: ensures the slot holds a shape-complete Table with its
  // cols_done ledger sized (state >= 1). Counts the rematerialization when
  // the slot had been evicted.
  void EnsureSkeletonLocked(TableId t, Slot& slot,
                            MaterializeOutcome* outcome) {
    if (slot.state.load(std::memory_order_relaxed) != 0) return;
    tables[t] = MakeShapeStub(shapes[t]);
    slot.cols_done.assign(shapes[t].column_names.size(), 0);
    if (slot.was_evicted) {
      slot.was_evicted = false;
      rematerializations.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) outcome->rematerialized = true;
    }
    touched_count.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(1, std::memory_order_release);
  }

  // Under slot.mu: a blob/column parse failed. Latch the sticky status and
  // leave a shape-complete stub with every column marked done (and its
  // full extent accounted), so no caller indexes out of bounds and the
  // slot never re-parses the damage.
  void StubAfterFailureLocked(TableId t, Slot& slot, const Status& status) {
    LatchError(status);
    tables[t] = MakeShapeStub(shapes[t]);
    slot.cols_done.assign(shapes[t].column_names.size(), 1);
    const uint64_t held =
        slot.resident_bytes.load(std::memory_order_relaxed);
    AddResidentBytes(slot, shapes[t].cell_bytes - held);
  }

  // Under slot.mu: parses the not-yet-resident columns in `want` (or every
  // column when `want` is null) of lazy table `t`. Returns true when the
  // slot ended fully resident.
  void MaterializeLocked(TableId t, Slot& slot,
                         const std::vector<ColumnId>* want,
                         MaterializeOutcome* outcome) {
    if (slot.state.load(std::memory_order_relaxed) == 2) return;
    const TableShape& shape = shapes[t];

    if (want == nullptr &&
        slot.state.load(std::memory_order_relaxed) == 0) {
      // Full-from-cold path: parse the whole blob straight into a fresh
      // table (row appends), skipping the skeleton — the warmer's and the
      // eager path's single pass.
      Table table(shape.name);
      for (const std::string& column : shape.column_names) {
        table.AddColumn(column);
      }
      const std::string_view image = backing.view();
      Status status = ParseTableCells(
          shape,
          image.substr(static_cast<size_t>(shape.cell_offset),
                       static_cast<size_t>(shape.cell_bytes)),
          image_size, &table);
      if (slot.was_evicted) {
        slot.was_evicted = false;
        rematerializations.fetch_add(1, std::memory_order_relaxed);
        if (outcome != nullptr) outcome->rematerialized = true;
      }
      touched_count.fetch_add(1, std::memory_order_relaxed);
      if (status.ok()) {
        tables[t] = std::move(table);
        slot.cols_done.assign(shape.column_names.size(), 1);
        AddResidentBytes(slot, shape.cell_bytes);
      } else {
        StubAfterFailureLocked(t, slot, status);
      }
      if (outcome != nullptr) outcome->bytes_parsed += shape.cell_bytes;
      OnSlotFull(slot);
      return;
    }

    EnsureSkeletonLocked(t, slot, outcome);
    const std::string_view image = backing.view();
    // Column c's slice starts at cell_offset + sum of earlier extents.
    std::vector<uint64_t> starts(shape.column_bytes.size());
    uint64_t offset = shape.cell_offset;
    for (size_t c = 0; c < shape.column_bytes.size(); ++c) {
      starts[c] = offset;
      offset += shape.column_bytes[c];
    }
    const auto fill_column = [&](ColumnId c) {
      if (c >= slot.cols_done.size() || slot.cols_done[c]) return true;
      std::vector<std::string> cells;
      Status status = ParseColumnCells(
          shape, c,
          image.substr(static_cast<size_t>(starts[c]),
                       static_cast<size_t>(shape.column_bytes[c])),
          starts[c], image_size, &cells);
      if (status.ok()) {
        status = tables[t].ReplaceColumnCells(c, std::move(cells));
      }
      if (!status.ok()) {
        StubAfterFailureLocked(t, slot, status);
        return false;
      }
      slot.cols_done[c] = 1;
      AddResidentBytes(slot, shape.column_bytes[c]);
      if (outcome != nullptr) outcome->bytes_parsed += shape.column_bytes[c];
      return true;
    };
    if (want != nullptr) {
      for (ColumnId c : *want) {
        if (!fill_column(c)) break;  // stubbed: every column marked done
      }
    } else {
      for (ColumnId c = 0; c < shape.column_names.size(); ++c) {
        if (!fill_column(c)) break;
      }
    }
    const bool all_done =
        std::all_of(slot.cols_done.begin(), slot.cols_done.end(),
                    [](unsigned char done) { return done != 0; });
    if (all_done) OnSlotFull(slot);
  }

  void EnsureFull(TableId t, MaterializeOutcome* outcome) {
    if (t >= num_lazy) return;
    Slot& slot = slots[t];
    if (slot.state.load(std::memory_order_acquire) != 2) {
      std::lock_guard<std::mutex> lock(slot.mu);
      Stopwatch parse_timer;
      MaterializeLocked(t, slot, nullptr, outcome);
      if (outcome != nullptr) {
        outcome->parse_seconds += parse_timer.ElapsedSeconds();
      }
    }
    Touch(slot);
  }

  void EnsureColumns(TableId t, const std::vector<ColumnId>& columns,
                     MaterializeOutcome* outcome) {
    if (t >= num_lazy) return;
    Slot& slot = slots[t];
    if (slot.state.load(std::memory_order_acquire) != 2) {
      std::lock_guard<std::mutex> lock(slot.mu);
      Stopwatch parse_timer;
      MaterializeLocked(t, slot, &columns, outcome);
      if (outcome != nullptr) {
        outcome->parse_seconds += parse_timer.ElapsedSeconds();
      }
    }
    Touch(slot);
  }

  Status LoadStatus() const {
    if (!has_error.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> lock(mu);
    return error;
  }

  Status MaterializeAll() {
    for (TableId t = 0; t < num_lazy; ++t) {
      EnsureFull(t, /*outcome=*/nullptr);
    }
    return LoadStatus();
  }

  // Idle-point contract: no concurrent materializer or reader. The slot
  // locks are still taken so the release-ordered state flip pairs with the
  // next toucher's acquire.
  void EvictToBudget() {
    const uint64_t limit = budget.load(std::memory_order_relaxed);
    if (limit == 0 || backing.view().empty()) return;
    if (resident_bytes.load(std::memory_order_relaxed) <= limit) return;
    // Oldest touch first; table id breaks ties deterministically.
    std::vector<std::pair<uint64_t, TableId>> order;
    for (TableId t = 0; t < num_lazy; ++t) {
      if (slots[t].state.load(std::memory_order_acquire) != 0) {
        order.emplace_back(
            slots[t].last_touch.load(std::memory_order_relaxed), t);
      }
    }
    std::sort(order.begin(), order.end());
    for (const auto& [touch, t] : order) {
      if (resident_bytes.load(std::memory_order_relaxed) <= limit) break;
      Slot& slot = slots[t];
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.pinned || slot.state.load(std::memory_order_relaxed) == 0) {
        continue;
      }
      if (slot.state.load(std::memory_order_relaxed) == 2) {
        full_count.fetch_sub(1, std::memory_order_relaxed);
      }
      touched_count.fetch_sub(1, std::memory_order_relaxed);
      const uint64_t held =
          slot.resident_bytes.load(std::memory_order_relaxed);
      resident_bytes.fetch_sub(held, std::memory_order_relaxed);
      bytes_evicted.fetch_add(held, std::memory_order_relaxed);
      evictions.fetch_add(1, std::memory_order_relaxed);
      slot.resident_bytes.store(0, std::memory_order_relaxed);
      slot.cols_done.clear();
      slot.was_evicted = true;
      tables[t] = Table();  // shape keeps serving from shapes[t]
      slot.state.store(0, std::memory_order_release);
    }
  }
};

TableStore::TableStore() : impl_(std::make_shared<Impl>()) {}
TableStore::~TableStore() = default;
TableStore::TableStore(TableStore&&) noexcept = default;
TableStore& TableStore::operator=(TableStore&&) noexcept = default;

TableStore TableStore::Lazy(std::vector<TableShape> shapes,
                            MappedFile backing) {
  TableStore store;
  Impl* impl = store.impl_.get();
  impl->num_lazy = shapes.size();
  impl->image_size = backing.size();
  impl->shapes = std::move(shapes);
  impl->backing = std::move(backing);
  impl->tables.resize(impl->num_lazy);
  impl->slots = std::make_unique<Impl::Slot[]>(impl->num_lazy);
  if (impl->num_lazy == 0) impl->backing.Release();
  return store;
}

size_t TableStore::NumTables() const { return impl_->tables.size(); }

TableId TableStore::Add(Table table) {
  impl_->tables.push_back(std::move(table));
  return static_cast<TableId>(impl_->tables.size() - 1);
}

const Table& TableStore::Get(TableId t, MaterializeOutcome* outcome) const {
  impl_->EnsureFull(t, outcome);
  return impl_->tables[t];
}

const Table& TableStore::GetColumns(TableId t,
                                    const std::vector<ColumnId>& columns,
                                    MaterializeOutcome* outcome) const {
  impl_->EnsureColumns(t, columns, outcome);
  return impl_->tables[t];
}

Status TableStore::EnsureTable(TableId t) const {
  impl_->EnsureFull(t, /*outcome=*/nullptr);
  return impl_->LoadStatus();
}

Status TableStore::MaterializeAll() const { return impl_->MaterializeAll(); }

std::function<Status()> TableStore::MakeWarmer() const {
  std::shared_ptr<Impl> impl = impl_;
  return [impl] { return impl->MaterializeAll(); };
}

Table* TableStore::Mutable(TableId t) {
  impl_->EnsureFull(t, /*outcome=*/nullptr);
  if (t < impl_->num_lazy) {
    std::lock_guard<std::mutex> lock(impl_->slots[t].mu);
    impl_->slots[t].pinned = true;
  }
  return &impl_->tables[t];
}

const std::string& TableStore::table_name(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].name;
  return impl->tables[t].name();
}

size_t TableStore::table_num_columns(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].column_names.size();
  return impl->tables[t].NumColumns();
}

const std::string& TableStore::column_name(TableId t, ColumnId c) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) return impl->shapes[t].column_names[c];
  return impl->tables[t].column_name(c);
}

size_t TableStore::table_num_rows(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) {
    return static_cast<size_t>(impl->shapes[t].num_rows);
  }
  return impl->tables[t].NumRows();
}

size_t TableStore::table_num_live_rows(TableId t) const {
  const Impl* impl = impl_.get();
  if (!impl->SlotResident(t)) {
    return static_cast<size_t>(impl->shapes[t].num_rows -
                               impl->shapes[t].num_deleted_rows);
  }
  return impl->tables[t].NumLiveRows();
}

void TableStore::SetBudget(uint64_t bytes) {
  impl_->budget.store(bytes, std::memory_order_relaxed);
}

void TableStore::EvictToBudget() const { impl_->EvictToBudget(); }

ResidencyStats TableStore::residency() const {
  const Impl* impl = impl_.get();
  ResidencyStats stats;
  stats.budget_bytes = impl->budget.load(std::memory_order_relaxed);
  stats.resident_bytes =
      impl->resident_bytes.load(std::memory_order_relaxed);
  stats.peak_resident_bytes =
      impl->peak_resident_bytes.load(std::memory_order_relaxed);
  stats.bytes_materialized =
      impl->bytes_materialized.load(std::memory_order_relaxed);
  stats.bytes_evicted = impl->bytes_evicted.load(std::memory_order_relaxed);
  stats.evictions = impl->evictions.load(std::memory_order_relaxed);
  stats.rematerializations =
      impl->rematerializations.load(std::memory_order_relaxed);
  stats.tables_resident = tables_resident();
  for (TableId t = 0; t < impl->num_lazy; ++t) {
    if (impl->slots[t].state.load(std::memory_order_acquire) == 1) {
      ++stats.partial_tables;
    }
  }
  return stats;
}

uint64_t TableStore::table_resident_bytes(TableId t) const {
  const Impl* impl = impl_.get();
  if (t < impl->num_lazy) {
    return impl->slots[t].resident_bytes.load(std::memory_order_relaxed);
  }
  return TableCellBytes(impl->tables[t]);
}

uint64_t TableStore::table_cell_bytes(TableId t) const {
  const Impl* impl = impl_.get();
  if (t < impl->num_lazy) return impl->shapes[t].cell_bytes;
  return TableCellBytes(impl->tables[t]);
}

bool TableStore::IsResident(TableId t) const {
  return impl_->SlotResident(t);
}

size_t TableStore::tables_resident() const {
  const Impl* impl = impl_.get();
  return impl->touched_count.load(std::memory_order_acquire) +
         (impl->tables.size() - impl->num_lazy);
}

bool TableStore::fully_resident() const {
  const Impl* impl = impl_.get();
  return impl->full_count.load(std::memory_order_acquire) == impl->num_lazy;
}

Status TableStore::load_status() const { return impl_->LoadStatus(); }

Status ParseTableCells(const TableShape& shape, std::string_view blob,
                       uint64_t image_size, Table* out) {
  std::string_view data = blob;
  const auto corrupt = [&](const std::string& what) {
    return Status::Corruption(
        "corpus: " + what + " (cell region, table '" + shape.name +
        "', byte offset " +
        std::to_string(shape.cell_offset + (blob.size() - data.size())) +
        " of " + std::to_string(image_size) + ")");
  };
  const size_t num_cols = shape.column_names.size();
  const uint64_t num_rows = shape.num_rows;
  // Cells are column-major on disk; gather them row-wise to append.
  std::vector<std::vector<std::string>> cols(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    cols[c].reserve(static_cast<size_t>(num_rows));
    for (uint64_t r = 0; r < num_rows; ++r) {
      std::string_view cell;
      if (!GetLengthPrefixed(&data, &cell)) {
        return corrupt("truncated cell");
      }
      cols[c].emplace_back(cell);
    }
  }
  if (!data.empty()) {
    return corrupt(std::to_string(data.size()) +
                   " trailing bytes after the table's cells");
  }
  for (uint64_t r = 0; r < num_rows; ++r) {
    std::vector<std::string> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) row.push_back(std::move(cols[c][r]));
    Result<RowId> row_id = out->AppendRow(std::move(row));
    if (!row_id.ok()) return row_id.status();
  }
  // Tombstones go on only once every row is in: AppendRow refills trailing
  // tombstones, so deleting while appending would shift later row ids.
  for (uint64_t r = 0; r < num_rows; ++r) {
    if ((shape.deleted_bitmap[r / 8] >> (r % 8)) & 1) {
      MATE_RETURN_IF_ERROR(out->DeleteRow(static_cast<RowId>(r)));
    }
  }
  return Status::OK();
}

Status ParseColumnCells(const TableShape& shape, ColumnId column,
                        std::string_view blob, uint64_t blob_offset,
                        uint64_t image_size,
                        std::vector<std::string>* cells) {
  std::string_view data = blob;
  const auto corrupt = [&](const std::string& what) {
    return Status::Corruption(
        "corpus: " + what + " (cell region, table '" + shape.name +
        "', column " + std::to_string(column) + ", byte offset " +
        std::to_string(blob_offset + (blob.size() - data.size())) + " of " +
        std::to_string(image_size) + ")");
  };
  cells->clear();
  cells->reserve(static_cast<size_t>(shape.num_rows));
  for (uint64_t r = 0; r < shape.num_rows; ++r) {
    std::string_view cell;
    if (!GetLengthPrefixed(&data, &cell)) {
      return corrupt("truncated cell");
    }
    cells->emplace_back(cell);
  }
  if (!data.empty()) {
    return corrupt(std::to_string(data.size()) +
                   " trailing bytes after the column's cells");
  }
  return Status::OK();
}

void AppendTableCells(const Table& table, std::string* out) {
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    for (RowId r = 0; r < table.NumRows(); ++r) {
      PutLengthPrefixed(out, table.cell(r, c));
    }
  }
}

uint64_t TableCellBytes(const Table& table) {
  uint64_t bytes = 0;
  for (ColumnId c = 0; c < table.NumColumns(); ++c) {
    bytes += TableColumnCellBytes(table, c);
  }
  return bytes;
}

uint64_t TableColumnCellBytes(const Table& table, ColumnId c) {
  uint64_t bytes = 0;
  for (RowId r = 0; r < table.NumRows(); ++r) {
    const size_t cell = table.cell(r, c).size();
    bytes += VarintLength(cell) + cell;
  }
  return bytes;
}

}  // namespace mate
