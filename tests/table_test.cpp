#include "storage/table.h"

#include <gtest/gtest.h>

namespace mate {
namespace {

Table MakeFigure1Candidate() {
  // Candidate table T1 from the paper's running example (Figure 1).
  Table t("T1");
  t.AddColumn("Vorname");
  t.AddColumn("Nachname");
  t.AddColumn("Land");
  t.AddColumn("Besetzung");
  (void)t.AppendRow({"Helmut", "Newton", "Germany", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Lee", "US", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "UK", "Dancer"});
  (void)t.AppendRow({"Ansel", "Adams", "US", "Photographer"});
  (void)t.AppendRow({"Muhammad", "Ali", "US", "Boxer"});
  (void)t.AppendRow({"Muhammad", "Lee", "Germany", "Birder"});
  (void)t.AppendRow({"Gretchen", "Lee", "Germany", "Artist"});
  (void)t.AppendRow({"Adam", "Sandler", "US", "Actor"});
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.name(), "T1");
  EXPECT_EQ(t.NumColumns(), 4u);
  EXPECT_EQ(t.NumRows(), 8u);
  EXPECT_EQ(t.NumLiveRows(), 8u);
  EXPECT_EQ(t.cell(1, 0), "Muhammad");
  EXPECT_EQ(t.cell(7, 3), "Actor");
}

TEST(TableTest, AppendRowRejectsWrongArity) {
  Table t("x");
  t.AddColumn("a");
  t.AddColumn("b");
  Result<RowId> r = t.AppendRow({"only-one"});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, AddColumnBackfillsEmptyCells) {
  Table t = MakeFigure1Candidate();
  ColumnId c = t.AddColumn("Alter");
  EXPECT_EQ(t.NumColumns(), 5u);
  for (RowId r = 0; r < t.NumRows(); ++r) EXPECT_EQ(t.cell(r, c), "");
}

TEST(TableTest, AddColumnWithCells) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"1"});
  (void)t.AppendRow({"2"});
  ASSERT_TRUE(t.AddColumnWithCells("b", {"x", "y"}).ok());
  EXPECT_EQ(t.cell(1, 1), "y");
  EXPECT_TRUE(t.AddColumnWithCells("c", {"too-few"}).IsInvalidArgument());
}

TEST(TableTest, DropColumnShiftsIds) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.DropColumn(1).ok());
  EXPECT_EQ(t.NumColumns(), 3u);
  EXPECT_EQ(t.column_name(1), "Land");
  EXPECT_EQ(t.cell(0, 1), "Germany");
  EXPECT_TRUE(t.DropColumn(99).IsOutOfRange());
}

TEST(TableTest, DeleteRowIsTombstone) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.DeleteRow(2).ok());
  EXPECT_EQ(t.NumRows(), 8u);       // ids stay allocated
  EXPECT_EQ(t.NumLiveRows(), 7u);
  EXPECT_TRUE(t.IsRowDeleted(2));
  EXPECT_EQ(t.cell(2, 0), "Ansel");  // cells stay readable (§5.4 deletes)
  EXPECT_TRUE(t.DeleteRow(2).IsAlreadyExists());
  EXPECT_TRUE(t.DeleteRow(100).IsOutOfRange());
}

TEST(TableTest, AppendRowReusesTrailingTombstones) {
  Table t = MakeFigure1Candidate();  // 8 rows
  ASSERT_TRUE(t.DeleteRow(7).ok());
  ASSERT_TRUE(t.DeleteRow(5).ok());
  ASSERT_TRUE(t.DeleteRow(6).ok());  // joins 5 and 7 into one trailing run
  EXPECT_EQ(t.NumLiveRows(), 5u);
  // The lowest id of the run first, then upward; then plain appends.
  for (RowId want : {5u, 6u, 7u, 8u}) {
    auto r = t.AppendRow({"a" + std::to_string(want), "b", "c", "d"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, want);
    EXPECT_FALSE(t.IsRowDeleted(*r));
    EXPECT_EQ(t.cell(*r, 0), "a" + std::to_string(want));  // old cells gone
  }
  EXPECT_EQ(t.NumRows(), 9u);
  EXPECT_EQ(t.NumLiveRows(), 9u);
  EXPECT_EQ(t.cell(4, 1), "Ali");  // live rows untouched
}

TEST(TableTest, AppendRowNeverReusesInteriorTombstone) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.DeleteRow(2).ok());
  auto r = t.AppendRow({"x", "y", "z", "w"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 8u);
  EXPECT_TRUE(t.IsRowDeleted(2));
  EXPECT_EQ(t.cell(2, 0), "Ansel");
  // Deleting the rows above the interior tombstone makes it trailing.
  for (RowId d = 3; d <= 8; ++d) ASSERT_TRUE(t.DeleteRow(d).ok());
  r = t.AppendRow({"x", "y", "z", "w"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
  EXPECT_EQ(t.NumRows(), 9u);
  EXPECT_EQ(t.NumLiveRows(), 3u);
}

TEST(TableTest, AppendRowAfterEmptyRowsAppends) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.DeleteRow(7).ok());
  t.AppendEmptyRows(2);  // live rows end the table again
  auto r = t.AppendRow({"x", "y", "z", "w"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 10u);
  EXPECT_TRUE(t.IsRowDeleted(7));
}

TEST(TableTest, SetCell) {
  Table t = MakeFigure1Candidate();
  ASSERT_TRUE(t.SetCell(0, 0, "helmut2").ok());
  EXPECT_EQ(t.cell(0, 0), "helmut2");
  EXPECT_TRUE(t.SetCell(100, 0, "x").IsOutOfRange());
  EXPECT_TRUE(t.SetCell(0, 100, "x").IsOutOfRange());
}

TEST(TableTest, FindColumn) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.FindColumn("Land"), 2u);
  EXPECT_EQ(t.FindColumn("nope"), kInvalidColumnId);
}

TEST(TableTest, RowValues) {
  Table t = MakeFigure1Candidate();
  EXPECT_EQ(t.RowValues(4),
            (std::vector<std::string>{"Muhammad", "Ali", "US", "Boxer"}));
}

TEST(TableTest, ColumnCardinalityIsDistinctNormalized) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"US"});
  (void)t.AppendRow({"us "});   // normalizes to the same value
  (void)t.AppendRow({"Germany"});
  EXPECT_EQ(t.ColumnCardinality(0), 2u);
  ASSERT_TRUE(t.DeleteRow(2).ok());
  EXPECT_EQ(t.ColumnCardinality(0), 1u);  // deleted rows excluded
}

TEST(TableTest, PayloadBytes) {
  Table t("x");
  t.AddColumn("a");
  (void)t.AppendRow({"abcd"});
  (void)t.AppendRow({"ef"});
  EXPECT_EQ(t.PayloadBytes(), 6u);
}

}  // namespace
}  // namespace mate
