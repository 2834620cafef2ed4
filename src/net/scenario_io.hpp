// CSV persistence for LinkSet (columns: sx, sy, rx, ry, rate).
#pragma once

#include <cstdint>
#include <optional>
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

/// ParseLinkCsv's fast path, for FormatScenario's own spelling of the
/// block, in one pass: the header is exactly `sx,sy,rx,ry,rate` or
/// `sx,sy,rx,ry,rate,tx_power`, and each cell is exactly what
/// std::from_chars consumes, followed by ',' or, after a row's last cell,
/// by '\n'. Every check ParseLinkCsv makes is made (finite values,
/// rate > 0, tx_power >= 0, LinkSet::Add's own). Any deviation (blanks,
/// '\r', quotes, a blank line, another column order, a value ParseLinkCsv
/// rejects) returns nullopt, "not taken", rather than an error: the caller
/// then runs ParseLinkCsv, which stays the one source of messages. A taken
/// result equals ParseLinkCsv's bit for bit.
///
/// With `fnv` non-null, each cell's bytes and its delimiter are folded
/// into the FNV-1a state *fnv as soon as the cell has parsed, so the
/// multiply chain runs in the shadow of the next cell's parse. On return
/// *fnv then covers every byte of `csv`; it is left as it was when the
/// path is not taken.
std::optional<LinkSet> ParseLinkRows(std::string_view csv,
                                     std::uint64_t* fnv = nullptr);

/// File round-trips; throw CheckFailure on I/O errors.
void SaveLinkSet(const LinkSet& links, const std::string& path);
LinkSet LoadLinkSet(const std::string& path);

}  // namespace fadesched::net
