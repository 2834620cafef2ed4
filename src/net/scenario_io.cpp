#include "net/scenario_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/string_util.hpp"

namespace fadesched::net {

util::CsvTable ToCsv(const LinkSet& links) {
  // The tx_power column is only materialized when some link overrides the
  // channel default, keeping paper-model files minimal and backwards
  // compatible.
  const bool with_power = !links.HasUniformTxPower();
  std::vector<std::string> header{"sx", "sy", "rx", "ry", "rate"};
  if (with_power) header.push_back("tx_power");
  util::CsvTable table(header);
  for (LinkId i = 0; i < links.Size(); ++i) {
    util::CsvRowBuilder row(table);
    row.Add(util::FormatDouble(links.Sender(i).x, 12))
        .Add(util::FormatDouble(links.Sender(i).y, 12))
        .Add(util::FormatDouble(links.Receiver(i).x, 12))
        .Add(util::FormatDouble(links.Receiver(i).y, 12))
        .Add(util::FormatDouble(links.Rate(i), 12));
    if (with_power) row.Add(util::FormatDouble(links.TxPower(i), 12));
    row.Commit();
  }
  return table;
}

namespace {

// One newline per data row but perhaps the last, which the header's
// newline makes up for: an upper bound on the link count. Counted with
// memchr, several times faster here than std::count.
std::size_t CountNewlines(std::string_view text) {
  std::size_t newlines = 0;
  const char* const end = text.data() + text.size();
  for (const char* at = text.data();
       (at = static_cast<const char*>(std::memchr(at, '\n', end - at)));
       ++at) {
    ++newlines;
  }
  return newlines;
}

}  // namespace

LinkSet ParseLinkCsv(std::string_view csv) {
  util::CsvReader reader(csv);
  // Cells are checked in this order, whatever the file's column order.
  enum Column { kSx, kSy, kRx, kRy, kRate, kTxPower, kNumColumns };
  static constexpr const char* kNames[kNumColumns] = {
      "sx", "sy", "rx", "ry", "rate", "tx_power"};
  const std::vector<std::string>& header = reader.Header();
  std::size_t index[kNumColumns];
  for (int c = 0; c < kNumColumns; ++c) {
    index[c] = static_cast<std::size_t>(
        std::find(header.begin(), header.end(), kNames[c]) - header.begin());
  }
  const bool with_power = index[kTxPower] < header.size();

  LinkSet links;
  links.Reserve(CountNewlines(csv));
  while (reader.Next()) {
    // Every malformed-value failure names the 1-based data row, so a bad
    // line in a thousand-link scenario file is findable.
    const auto where = [&] {
      return "scenario row " + std::to_string(reader.Row());
    };
    const auto cell = [&](Column col) {
      FS_CHECK_MSG(index[col] < header.size(),
                   std::string("no such CSV column: ") + kNames[col]);
      const auto parsed = util::ParseDouble(reader.Cell(index[col]));
      FS_CHECK_MSG(parsed.has_value(),
                   where() + ": malformed value in column " + kNames[col]);
      FS_CHECK_MSG(std::isfinite(*parsed),
                   where() + ": non-finite value in column " + kNames[col]);
      return *parsed;
    };
    Link link;
    link.sender.x = cell(kSx);
    link.sender.y = cell(kSy);
    link.receiver.x = cell(kRx);
    link.receiver.y = cell(kRy);
    link.rate = cell(kRate);
    FS_CHECK_MSG(link.rate > 0.0, where() + ": rate must be positive");
    if (with_power) {
      link.tx_power = cell(kTxPower);
      FS_CHECK_MSG(link.tx_power >= 0.0,
                   where() + ": tx_power must be non-negative");
    }
    try {
      links.Add(link);
    } catch (const util::CheckFailure& e) {
      // Re-raise LinkSet's own validation (e.g. zero-length links) with
      // the row attached.
      throw util::CheckFailure(where() + ": " + e.what(), e.location());
    }
  }
  return links;
}

std::optional<LinkSet> ParseLinkRows(std::string_view csv,
                                     std::uint64_t* fnv) {
  constexpr std::string_view kHeader = "sx,sy,rx,ry,rate\n";
  constexpr std::string_view kPowerHeader = "sx,sy,rx,ry,rate,tx_power\n";
  const bool with_power = csv.starts_with(kPowerHeader);
  if (!with_power && !csv.starts_with(kHeader)) return std::nullopt;
  const std::size_t columns = with_power ? 6 : 5;
  const char* at = csv.data() + (with_power ? kPowerHeader : kHeader).size();
  const char* const end = csv.data() + csv.size();
  std::uint64_t hash =
      fnv != nullptr ? util::FnvFold(*fnv, csv.data(), at) : 0;

  LinkSet links;
  links.Reserve(CountNewlines(std::string_view(at, end - at)));
  while (at != end) {
    double cells[6] = {};  // sx, sy, rx, ry, rate, tx_power (0 = default)
    for (std::size_t c = 0; c < columns; ++c) {
      const auto [stop, error] = std::from_chars(at, end, cells[c]);
      if (error != std::errc() || stop == end ||
          *stop != (c + 1 < columns ? ',' : '\n') ||
          !std::isfinite(cells[c])) {
        return std::nullopt;
      }
      if (fnv != nullptr) hash = util::FnvFold(hash, at, stop + 1);
      at = stop + 1;
    }
    // LinkSet::TryAdd also requires rate > 0 and tx_power >= 0.
    if (!links.TryAdd(Link{{cells[0], cells[1]}, {cells[2], cells[3]},
                           cells[4], cells[5]})) {
      return std::nullopt;
    }
  }
  if (fnv != nullptr) *fnv = hash;
  return links;
}

void SaveLinkSet(const LinkSet& links, const std::string& path) {
  // Atomic (temp → fsync → rename): an interrupted save can never leave a
  // truncated scenario that parses as a smaller topology.
  ToCsv(links).Save(path);
}

LinkSet LoadLinkSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FS_CHECK_MSG(in.good(), "cannot open for reading: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return ParseLinkCsv(text);
}

}  // namespace fadesched::net
