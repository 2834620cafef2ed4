#include "util/csv.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace fadesched::util {
namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  FS_CHECK_MSG(!header_.empty(), "CSV header must be non-empty");
}

std::size_t CsvTable::ColumnIndex(const std::string& name) const {
  auto it = std::find(header_.begin(), header_.end(), name);
  FS_CHECK_MSG(it != header_.end(), "no such CSV column: " + name);
  return static_cast<std::size_t>(it - header_.begin());
}

bool CsvTable::HasColumn(const std::string& name) const {
  return std::find(header_.begin(), header_.end(), name) != header_.end();
}

void CsvTable::AppendRow(std::vector<std::string> row) {
  FS_CHECK_MSG(row.size() == header_.size(), "CSV row width mismatch");
  rows_.push_back(std::move(row));
}

const std::string& CsvTable::Cell(std::size_t row, std::size_t col) const {
  FS_CHECK(row < rows_.size() && col < header_.size());
  return rows_[row][col];
}

const std::string& CsvTable::Cell(std::size_t row, const std::string& col) const {
  return Cell(row, ColumnIndex(col));
}

double CsvTable::CellAsDouble(std::size_t row, const std::string& col) const {
  auto parsed = ParseDouble(Cell(row, col));
  FS_CHECK_MSG(parsed.has_value(), "malformed double in CSV column " + col);
  return *parsed;
}

long long CsvTable::CellAsInt(std::size_t row, const std::string& col) const {
  auto parsed = ParseInt(Cell(row, col));
  FS_CHECK_MSG(parsed.has_value(), "malformed int in CSV column " + col);
  return *parsed;
}

void CsvTable::Write(std::ostream& os) const {
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) os << ',';
    os << QuoteCell(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << QuoteCell(row[c]);
    }
    os << '\n';
  }
}

std::string CsvTable::ToString() const {
  std::ostringstream os;
  Write(os);
  return os.str();
}

void CsvTable::Save(const std::string& path) const {
  AtomicWriteFile(path, ToString());
}

CsvTable CsvTable::ParseString(std::string_view text) {
  CsvReader reader(text);
  CsvTable table(reader.Header());
  while (reader.Next()) {
    std::vector<std::string> row;
    row.reserve(table.NumCols());
    for (std::size_t c = 0; c < table.NumCols(); ++c) {
      row.emplace_back(reader.Cell(c));
    }
    table.AppendRow(std::move(row));
  }
  return table;
}

CsvReader::CsvReader(std::string_view text) : rest_(text) {
  std::string_view line;
  FS_CHECK_MSG(NextLine(&line), "empty CSV input: no header line");
  SplitLine(line);
  header_.assign(cells_.begin(), cells_.end());
}

bool CsvReader::NextLine(std::string_view* line) {
  if (!PopLine(rest_, line)) return false;
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

bool CsvReader::Next() {
  std::string_view line;
  while (NextLine(&line)) {
    if (Trim(line).empty()) continue;
    ++row_;
    SplitLine(line);
    FS_CHECK_MSG(cells_.size() == header_.size(),
                 "CSV row " + std::to_string(row_) + ": expected " +
                     std::to_string(header_.size()) + " columns, got " +
                     std::to_string(cells_.size()));
    return true;
  }
  return false;
}

void CsvReader::SplitLine(std::string_view line) {
  cells_.clear();
  if (line.find('"') == std::string_view::npos) {
    // Fast path (every scenario row): cells are views into the text.
    std::size_t begin = 0;
    for (std::size_t comma; (comma = line.find(',', begin)) !=
                            std::string_view::npos;
         begin = comma + 1) {
      cells_.push_back(line.substr(begin, comma - begin));
    }
    cells_.push_back(line.substr(begin));
    return;
  }
  // Quoted cells are unescaped into scratch_. Unescaping only shrinks,
  // so with the line's length reserved the views never dangle.
  scratch_.clear();
  scratch_.reserve(line.size());
  std::size_t begin = 0;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c != '"') {
        scratch_ += c;
      } else if (i + 1 < line.size() && line[i + 1] == '"') {
        scratch_ += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells_.emplace_back(scratch_.data() + begin, scratch_.size() - begin);
      begin = scratch_.size();
    } else {
      scratch_ += c;
    }
  }
  cells_.emplace_back(scratch_.data() + begin, scratch_.size() - begin);
}

std::string CsvTable::ToPrettyString() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    total += width[c] + (c > 0 ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

CsvRowBuilder& CsvRowBuilder::Add(std::string value) {
  cells_.push_back(std::move(value));
  return *this;
}

CsvRowBuilder& CsvRowBuilder::Add(double value) {
  cells_.push_back(FormatDouble(value));
  return *this;
}

CsvRowBuilder& CsvRowBuilder::Add(long long value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

CsvRowBuilder& CsvRowBuilder::Add(std::size_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

CsvRowBuilder& CsvRowBuilder::Add(int value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

void CsvRowBuilder::Commit() { table_.AppendRow(std::move(cells_)); }

}  // namespace fadesched::util
