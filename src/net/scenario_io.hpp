// CSV persistence for LinkSet (columns: sx, sy, rx, ry, rate).
#pragma once

#include <string>
#include <string_view>

#include "net/link_set.hpp"
#include "util/csv.hpp"

namespace fadesched::net {

/// Serialize a LinkSet into a CSV table.
util::CsvTable ToCsv(const LinkSet& links);

/// Parse a LinkSet from CSV text in one pass (util::CsvReader's grammar,
/// no intermediate table): columns sx, sy, rx, ry, rate in any order, an
/// optional tx_power column, extra columns ignored. Throws CheckFailure
/// naming the 1-based data row ("scenario row N: ...") on a malformed,
/// non-finite or invalid value, and on the first row if a column is
/// missing ("no such CSV column: rx").
LinkSet ParseLinkCsv(std::string_view csv);

/// File round-trips; throw CheckFailure on I/O errors.
void SaveLinkSet(const LinkSet& links, const std::string& path);
LinkSet LoadLinkSet(const std::string& path);

}  // namespace fadesched::net
