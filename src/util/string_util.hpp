// Small string helpers shared by the CSV and CLI modules.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fadesched::util {

/// Split `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Pops the next line off `rest` into `*line`, without its '\n' (a last
/// line needs none, as with std::getline); false once `rest` is empty.
bool PopLine(std::string_view& rest, std::string_view* line);

/// Parse helpers returning nullopt on malformed input instead of throwing.
std::optional<long long> ParseInt(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Join items with `sep`.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// Appends `value` spelled exactly as printf("%.17g") spells it — 17
/// significant digits, which round-trip every double — via std::to_chars:
/// no format string, no locale, no temporary.
void AppendDoubleG17(std::string& out, double value);

/// printf-style double formatting with trailing-zero trimming ("1.25", "3").
std::string FormatDouble(double value, int max_precision = 6);

}  // namespace fadesched::util
