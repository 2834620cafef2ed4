#include "util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace fadesched::util {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t first = 0;
  while (first < text.size() &&
         std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  std::size_t last = text.size();
  while (last > first &&
         std::isspace(static_cast<unsigned char>(text[last - 1]))) {
    --last;
  }
  return text.substr(first, last - first);
}

bool PopLine(std::string_view& rest, std::string_view* line) {
  if (rest.empty()) return false;
  const std::size_t end = rest.find('\n');
  if (end == std::string_view::npos) {
    *line = rest;
    rest = {};
  } else {
    *line = rest.substr(0, end);
    rest.remove_prefix(end + 1);
  }
  return true;
}

std::optional<long long> ParseInt(std::string_view text) {
  text = Trim(text);
  long long value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  double value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || text.empty()) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

void AppendDoubleG17(std::string& out, double value) {
  char buf[32];  // "-d.dddddddddddddddde-ddd" is 24 characters
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

std::string FormatDouble(double value, int max_precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", max_precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace fadesched::util
