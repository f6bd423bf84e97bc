#include "storage/corpus_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storage/table_store.h"

namespace mate {
namespace {

Corpus MakeCorpus() {
  Corpus corpus;
  Table t1("sensors");
  t1.AddColumn("time");
  t1.AddColumn("city");
  (void)t1.AppendRow({"2024-01-01", "berlin"});
  (void)t1.AppendRow({"2024-01-02", "hannover"});
  (void)t1.AppendRow({"2024-01-03", "munich"});
  EXPECT_TRUE(t1.DeleteRow(1).ok());
  corpus.AddTable(std::move(t1));

  Table t2("empty table");
  t2.AddColumn("only column, with comma \"and quotes\"");
  corpus.AddTable(std::move(t2));
  return corpus;
}

void ExpectCorporaEqual(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.NumTables(), b.NumTables());
  for (TableId t = 0; t < a.NumTables(); ++t) {
    const Table& ta = a.table(t);
    const Table& tb = b.table(t);
    EXPECT_EQ(ta.name(), tb.name());
    ASSERT_EQ(ta.NumColumns(), tb.NumColumns());
    ASSERT_EQ(ta.NumRows(), tb.NumRows());
    EXPECT_EQ(ta.NumLiveRows(), tb.NumLiveRows());
    for (ColumnId c = 0; c < ta.NumColumns(); ++c) {
      EXPECT_EQ(ta.column_name(c), tb.column_name(c));
      for (RowId r = 0; r < ta.NumRows(); ++r) {
        EXPECT_EQ(ta.cell(r, c), tb.cell(r, c));
        EXPECT_EQ(ta.IsRowDeleted(r), tb.IsRowDeleted(r));
      }
    }
  }
}

TEST(CorpusIoTest, SerializeDeserializeRoundTrip) {
  Corpus corpus = MakeCorpus();
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCorporaEqual(corpus, *loaded);
}

TEST(CorpusIoTest, RejectsBadMagic) {
  std::string bytes = "NOTMAGIC-and-more-bytes";
  auto loaded = DeserializeCorpus(bytes);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST(CorpusIoTest, RejectsTruncation) {
  Corpus corpus = MakeCorpus();
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    auto loaded = DeserializeCorpus(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
  }
}

TEST(CorpusIoTest, FileRoundTrip) {
  Corpus corpus = MakeCorpus();
  std::string path = testing::TempDir() + "/mate_corpus_io_test.bin";
  ASSERT_TRUE(SaveCorpus(corpus, path).ok());
  auto loaded = LoadCorpus(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCorporaEqual(corpus, *loaded);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, DeletedLastRowRoundTripsAndIsReused) {
  // "sensors" ends in a run of two tombstones (rows 1 and 2): both loaders
  // keep every row id and tombstone, and the loaded table refills the run
  // from its lowest id, as the saved one would.
  Corpus corpus = MakeCorpus();
  ASSERT_TRUE(corpus.mutable_table(0)->DeleteRow(2).ok());
  const std::string path = testing::TempDir() + "/mate_corpus_io_last.bin";
  ASSERT_TRUE(SaveCorpus(corpus, path).ok());
  auto eager = LoadCorpus(path);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ExpectCorporaEqual(corpus, *eager);
  auto lazy = OpenCorpusLazy(path);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ExpectCorporaEqual(corpus, *lazy);
  std::remove(path.c_str());

  for (Corpus* c : {&corpus, &*eager, &*lazy}) {
    Table* sensors = c->mutable_table(0);
    auto row = sensors->AppendRow({"2024-01-04", "bremen"});
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, 1u);
    EXPECT_EQ(sensors->NumRows(), 3u);
    EXPECT_TRUE(sensors->IsRowDeleted(2));
  }
}

TEST(CorpusIoTest, LoadMissingFileIsIOError) {
  auto loaded = LoadCorpus("/nonexistent/dir/corpus.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(CorpusIoTest, EmptyCorpusRoundTrip) {
  Corpus corpus;
  std::string bytes;
  SerializeCorpus(corpus, &bytes);
  auto loaded = DeserializeCorpus(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumTables(), 0u);
}

TEST(CorpusIoTest, StatsRoundTripThroughTheHeader) {
  Corpus corpus = MakeCorpus();
  const CorpusStats stats = corpus.ComputeStats();
  std::string bytes;
  SerializeCorpus(corpus, stats, &bytes);
  CorpusStats loaded_stats;
  bool present = false;
  auto loaded = DeserializeCorpus(bytes, &loaded_stats, &present);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(present);
  EXPECT_TRUE(loaded_stats == stats);
  ExpectCorporaEqual(corpus, *loaded);

  // The stats-less writer marks them absent (all-zero payload).
  SerializeCorpus(corpus, &bytes);
  present = true;
  auto plain = DeserializeCorpus(bytes, &loaded_stats, &present);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(present);
}

TEST(CorpusIoTest, LazyOpenRoundTripsAndServesStats) {
  Corpus corpus = MakeCorpus();
  const CorpusStats stats = corpus.ComputeStats();
  const std::string path = testing::TempDir() + "/mate_corpus_io_lazy.bin";
  ASSERT_TRUE(SaveCorpus(corpus, stats, path).ok());
  CorpusStats loaded_stats;
  bool present = false;
  auto lazy = OpenCorpusLazy(path, &loaded_stats, &present);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_TRUE(present);
  EXPECT_TRUE(loaded_stats == stats);
  EXPECT_FALSE(lazy->fully_resident());  // header only so far
  ExpectCorporaEqual(corpus, *lazy);     // materializes on access
  EXPECT_TRUE(lazy->fully_resident());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, V3LazyColumnarParsesOnlyTheRequestedColumn) {
  // The per-column extents round-trip: a lazy open of the current format
  // serves one column of a table for exactly that column's bytes, and a
  // later full access completes the remaining columns bit-identically.
  Corpus corpus = MakeCorpus();
  const std::string path = testing::TempDir() + "/mate_corpus_io_v3col.bin";
  ASSERT_TRUE(SaveCorpus(corpus, corpus.ComputeStats(), path).ok());
  auto lazy = OpenCorpusLazy(path);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  MaterializeOutcome outcome;
  const Table& partial = lazy->MaterializeColumns(0, {1}, &outcome);
  EXPECT_EQ(outcome.bytes_parsed, TableColumnCellBytes(corpus.table(0), 1));
  EXPECT_LT(outcome.bytes_parsed, lazy->table_cell_bytes(0));
  EXPECT_EQ(lazy->residency().partial_tables, 1u);
  for (RowId r = 0; r < partial.NumRows(); ++r) {
    EXPECT_EQ(partial.cell(r, 1), corpus.table(0).cell(r, 1));
  }
  ExpectCorporaEqual(corpus, *lazy);  // full access completes the rest
  EXPECT_EQ(lazy->residency().partial_tables, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mate
