// In-memory CSV table with typed cells, used for scenario I/O and for
// printing benchmark series in a uniform shape.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fadesched::util {

/// A rectangular table of string cells with a header row.
///
/// All mutation validates shape: every appended row must match the header
/// width. Numeric accessors parse on demand and throw CheckFailure on
/// malformed cells, which keeps scenario loading honest.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  [[nodiscard]] std::size_t NumRows() const { return rows_.size(); }
  [[nodiscard]] std::size_t NumCols() const { return header_.size(); }
  [[nodiscard]] const std::vector<std::string>& Header() const { return header_; }

  /// Index of a named column; throws if absent.
  [[nodiscard]] std::size_t ColumnIndex(const std::string& name) const;
  [[nodiscard]] bool HasColumn(const std::string& name) const;

  void AppendRow(std::vector<std::string> row);

  [[nodiscard]] const std::string& Cell(std::size_t row, std::size_t col) const;
  [[nodiscard]] const std::string& Cell(std::size_t row, const std::string& col) const;
  [[nodiscard]] double CellAsDouble(std::size_t row, const std::string& col) const;
  [[nodiscard]] long long CellAsInt(std::size_t row, const std::string& col) const;

  /// Serialize to RFC-4180-ish CSV (no quoting needed for our value set;
  /// cells containing separators/quotes are quoted defensively).
  void Write(std::ostream& os) const;
  [[nodiscard]] std::string ToString() const;

  /// Write the CSV to `path` atomically (temp → fsync → rename), so an
  /// interrupted run can never leave a truncated table on disk.
  void Save(const std::string& path) const;

  /// Parse a table from CSV text (CsvReader's grammar); first line is
  /// the header.
  static CsvTable ParseString(std::string_view text);

  /// Render as an aligned human-readable table (for bench stdout).
  [[nodiscard]] std::string ToPrettyString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Single-pass CSV row reader over text it does not own: the parser
/// behind CsvTable::ParseString and net::ParseLinkCsv, so both accept the
/// same grammar. The first line is the header; lines end at '\n' with one
/// trailing '\r' stripped; whitespace-only lines are skipped; a cell may
/// be quoted ("a,b", "say ""hi"""). Cells are views into the text (or into
/// the reader's scratch buffer for lines with quotes) valid until the
/// next Next(). Throws CheckFailure on empty input and, naming the 1-based
/// data row, on a row whose width differs from the header's.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text);

  [[nodiscard]] const std::vector<std::string>& Header() const {
    return header_;
  }

  /// Advances to the next data row; false once the text is exhausted.
  bool Next();

  /// 1-based number of the current data row (blank lines not counted).
  [[nodiscard]] std::size_t Row() const { return row_; }
  [[nodiscard]] std::string_view Cell(std::size_t col) const {
    return cells_[col];
  }

 private:
  /// Next line without its '\n' and trailing '\r'; false at end of text.
  bool NextLine(std::string_view* line);
  void SplitLine(std::string_view line);

  std::string_view rest_;
  std::vector<std::string> header_;
  std::vector<std::string_view> cells_;
  std::string scratch_;
  std::size_t row_ = 0;
};

/// Convenience builder: appends typed cells and materializes rows.
class CsvRowBuilder {
 public:
  explicit CsvRowBuilder(CsvTable& table) : table_(table) {}

  CsvRowBuilder& Add(std::string value);
  CsvRowBuilder& Add(double value);
  CsvRowBuilder& Add(long long value);
  CsvRowBuilder& Add(std::size_t value);
  CsvRowBuilder& Add(int value);

  /// Validates width and appends to the table.
  void Commit();

 private:
  CsvTable& table_;
  std::vector<std::string> cells_;
};

}  // namespace fadesched::util
