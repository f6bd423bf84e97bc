// §5.4 in action: keeping the MATE index consistent under table edits
// (insert table/row, append column, update cell, delete row/column) without
// rebuilding it — all through one mate::Session, whose result cache is
// explicitly invalidated after each edit batch — and persisting the session
// to disk and back.
//
// Build & run:  ./build/examples/index_maintenance

#include <cstdio>
#include <string>

#include "core/session.h"

using namespace mate;  // NOLINT: example brevity

namespace {

int64_t TopJoinability(Session* session, const Table& query,
                       const std::vector<ColumnId>& key) {
  QuerySpec spec;
  spec.table = &query;
  spec.key_columns = key;
  spec.options.k = 1;
  auto result = session->Discover(spec);
  if (!result.ok()) {
    std::fprintf(stderr, "Discover failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result->JoinabilityAt(0);
}

// Prints one joinability next to the value the edit should produce and
// remembers a mismatch, so the example fails loudly when maintenance breaks.
bool g_mismatch = false;

void Report(const char* label, int64_t got, int64_t expect) {
  std::printf("%-24s %lld (expect %lld)\n", label, static_cast<long long>(got),
              static_cast<long long>(expect));
  if (got != expect) g_mismatch = true;
}

}  // namespace

int main() {
  Corpus corpus;
  Table inventory("inventory");
  inventory.AddColumn("sku");
  inventory.AddColumn("warehouse");
  inventory.AddColumn("stock");
  (void)inventory.AppendRow({"widget-1", "berlin", "15"});
  (void)inventory.AppendRow({"widget-2", "berlin", "3"});
  (void)inventory.AppendRow({"widget-3", "hamburg", "42"});
  TableId inv_id = corpus.AddTable(std::move(inventory));

  SessionOptions session_options;
  session_options.corpus = std::move(corpus);
  session_options.build_index = true;
  auto opened = Session::Open(std::move(session_options));
  if (!opened.ok()) {
    std::fprintf(stderr, "Session::Open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Session session = std::move(*opened);

  Table orders("orders");
  orders.AddColumn("sku");
  orders.AddColumn("warehouse");
  (void)orders.AppendRow({"widget-1", "berlin"});
  (void)orders.AppendRow({"widget-3", "hamburg"});
  (void)orders.AppendRow({"widget-9", "munich"});
  const std::vector<ColumnId> key = {0, 1};

  Report("initial top joinability:", TopJoinability(&session, orders, key), 2);

  // Insert a row that matches the third order -> joinability rises to 3.
  // Every edit goes through the session's mutable accessors; the cache must
  // be invalidated afterwards or repeated queries keep the pre-edit answer.
  auto new_row = session.mutable_corpus()
                     ->mutable_table(inv_id)
                     ->AppendRow({"widget-9", "munich", "7"});
  if (!new_row.ok()) return 1;
  if (auto s = session.mutable_index()->InsertRow(session.corpus(), inv_id,
                                                  *new_row);
      !s.ok()) {
    return 1;
  }
  std::printf("stale cache still says:  %lld (the pre-edit answer!)\n",
              static_cast<long long>(TopJoinability(&session, orders, key)));
  session.InvalidateCache();
  Report("after InvalidateCache:", TopJoinability(&session, orders, key), 3);

  // Update a cell: widget-1 moves to hamburg -> its combo stops matching.
  if (auto s = session.mutable_corpus()->mutable_table(inv_id)->SetCell(
          0, 1, "hamburg");
      !s.ok()) {
    return 1;
  }
  if (auto s = session.mutable_index()->UpdateCell(session.corpus(), inv_id,
                                                   0, 1, "berlin");
      !s.ok()) {
    return 1;
  }
  session.InvalidateCache();
  Report("after UpdateCell:", TopJoinability(&session, orders, key), 2);

  // Delete the widget-3 row -> joinability drops to 1.
  if (auto s = session.mutable_index()->DeleteRow(session.corpus(), inv_id,
                                                  2);
      !s.ok()) {
    return 1;
  }
  if (auto s = session.mutable_corpus()->mutable_table(inv_id)->DeleteRow(2);
      !s.ok()) {
    return 1;
  }
  session.InvalidateCache();
  Report("after DeleteRow:", TopJoinability(&session, orders, key), 1);

  // Append a column (per §5.4 this only ORs new bits into the super keys).
  {
    std::vector<std::string> cells;
    for (RowId r = 0; r < session.corpus().table(inv_id).NumRows(); ++r) {
      cells.push_back("supplier-" + std::to_string(r % 2));
    }
    if (auto s = session.mutable_corpus()
                     ->mutable_table(inv_id)
                     ->AddColumnWithCells("supplier", std::move(cells));
        !s.ok()) {
      return 1;
    }
    if (auto s = session.mutable_index()->AddAppendedColumn(session.corpus(),
                                                            inv_id);
        !s.ok()) {
      return 1;
    }
    session.InvalidateCache();
  }
  Report("after AddColumn:", TopJoinability(&session, orders, key), 1);

  // Persist the maintained session and reload it from disk.
  const std::string corpus_path = "/tmp/mate_example_corpus.bin";
  const std::string index_path = "/tmp/mate_example_index.bin";
  if (auto s = session.Save(corpus_path, index_path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  SessionOptions reopen;
  reopen.corpus_path = corpus_path;
  reopen.index_path = index_path;
  auto reloaded = Session::Open(std::move(reopen));
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  Report("after Save/Open:", TopJoinability(&*reloaded, orders, key), 1);
  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
  if (g_mismatch) {
    std::fprintf(stderr, "a joinability differs from its expected value\n");
    return 1;
  }
  std::printf("\nEvery edit kept the index consistent without a rebuild — "
              "the §5.4 maintenance paths behind one owning Session.\n");
  return 0;
}
