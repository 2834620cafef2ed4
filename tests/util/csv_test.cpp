#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"

namespace fadesched::util {
namespace {

CsvTable SampleTable() {
  CsvTable table({"name", "x", "y"});
  table.AppendRow({"a", "1", "2.5"});
  table.AppendRow({"b", "-3", "0.125"});
  return table;
}

TEST(CsvTableTest, HeaderAndShape) {
  CsvTable table = SampleTable();
  EXPECT_EQ(table.NumRows(), 2u);
  EXPECT_EQ(table.NumCols(), 3u);
  EXPECT_EQ(table.Header(), (std::vector<std::string>{"name", "x", "y"}));
}

TEST(CsvTableTest, EmptyHeaderRejected) {
  EXPECT_THROW(CsvTable(std::vector<std::string>{}), CheckFailure);
}

TEST(CsvTableTest, RowWidthMismatchRejected) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.AppendRow({"only-one"}), CheckFailure);
}

TEST(CsvTableTest, ColumnIndexLookup) {
  CsvTable table = SampleTable();
  EXPECT_EQ(table.ColumnIndex("y"), 2u);
  EXPECT_TRUE(table.HasColumn("x"));
  EXPECT_FALSE(table.HasColumn("z"));
  EXPECT_THROW((void)table.ColumnIndex("z"), CheckFailure);
}

TEST(CsvTableTest, CellAccessByNameAndIndex) {
  CsvTable table = SampleTable();
  EXPECT_EQ(table.Cell(0, "name"), "a");
  EXPECT_EQ(table.Cell(1, 0), "b");
  EXPECT_DOUBLE_EQ(table.CellAsDouble(0, "y"), 2.5);
  EXPECT_EQ(table.CellAsInt(1, "x"), -3);
}

TEST(CsvTableTest, MalformedNumericCellThrows) {
  CsvTable table = SampleTable();
  EXPECT_THROW((void)table.CellAsDouble(0, "name"), CheckFailure);
  EXPECT_THROW((void)table.CellAsInt(0, "y"), CheckFailure);  // 2.5 is not an int
}

TEST(CsvTableTest, OutOfRangeAccessThrows) {
  CsvTable table = SampleTable();
  EXPECT_THROW((void)table.Cell(5, 0), CheckFailure);
  EXPECT_THROW((void)table.Cell(0, 9), CheckFailure);
}

TEST(CsvTableTest, WriteParseRoundTrip) {
  CsvTable table = SampleTable();
  CsvTable parsed = CsvTable::ParseString(table.ToString());
  ASSERT_EQ(parsed.NumRows(), table.NumRows());
  ASSERT_EQ(parsed.Header(), table.Header());
  for (std::size_t r = 0; r < table.NumRows(); ++r) {
    for (std::size_t c = 0; c < table.NumCols(); ++c) {
      EXPECT_EQ(parsed.Cell(r, c), table.Cell(r, c));
    }
  }
}

TEST(CsvTableTest, QuotedCellsRoundTrip) {
  CsvTable table({"text"});
  table.AppendRow({"has,comma"});
  table.AppendRow({"has\"quote"});
  CsvTable parsed = CsvTable::ParseString(table.ToString());
  EXPECT_EQ(parsed.Cell(0, "text"), "has,comma");
  EXPECT_EQ(parsed.Cell(1, "text"), "has\"quote");
}

TEST(CsvTableTest, ParseSkipsBlankLines) {
  CsvTable parsed = CsvTable::ParseString("a,b\n1,2\n\n3,4\n");
  EXPECT_EQ(parsed.NumRows(), 2u);
}

TEST(CsvTableTest, ParseHandlesCrLf) {
  CsvTable parsed = CsvTable::ParseString("a,b\r\n1,2\r\n");
  EXPECT_EQ(parsed.Cell(0, "b"), "2");
}

TEST(CsvTableTest, ParseEmptyInputThrows) {
  EXPECT_THROW(CsvTable::ParseString(""), CheckFailure);
}

TEST(CsvTableTest, ParseNamesRowOnWidthMismatch) {
  // Blank lines don't count: the short line below is data row 2.
  try {
    CsvTable::ParseString("a,b\n1,2\n\n3\n");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CSV row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 2 columns, got 1"), std::string::npos)
        << what;
  }
}

TEST(CsvTableTest, PrettyStringContainsAlignedHeader) {
  const std::string pretty = SampleTable().ToPrettyString();
  EXPECT_NE(pretty.find("name"), std::string::npos);
  EXPECT_NE(pretty.find("----"), std::string::npos);
}

TEST(CsvRowBuilderTest, TypedCellsFormatted) {
  CsvTable table({"s", "d", "i", "z"});
  CsvRowBuilder(table)
      .Add(std::string("x"))
      .Add(2.5)
      .Add(static_cast<long long>(-4))
      .Add(std::size_t{7})
      .Commit();
  EXPECT_EQ(table.Cell(0, "s"), "x");
  EXPECT_EQ(table.Cell(0, "d"), "2.5");
  EXPECT_EQ(table.Cell(0, "i"), "-4");
  EXPECT_EQ(table.Cell(0, "z"), "7");
}

TEST(CsvRowBuilderTest, WidthMismatchDetectedAtCommit) {
  CsvTable table({"a", "b"});
  CsvRowBuilder builder(table);
  builder.Add(std::string("only"));
  EXPECT_THROW(builder.Commit(), CheckFailure);
}

}  // namespace
}  // namespace fadesched::util
