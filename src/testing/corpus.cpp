#include "testing/corpus.hpp"

#include <array>
#include <optional>
#include <string_view>
#include <utility>

#include "net/scenario_io.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/string_util.hpp"

namespace fadesched::testing {
namespace {

constexpr std::string_view kMagic = "# fadesched scenario v1";

}  // namespace

std::string FormatScenario(const ScenarioCase& scenario) {
  FS_CHECK_MSG(scenario.description.find('\n') == std::string::npos,
               "scenario description must be a single line");
  const net::LinkSet& links = scenario.links;
  const bool with_power = !links.HasUniformTxPower();
  std::string out;
  // One allocation: a %.17g cell is at most 24 characters plus its comma.
  out.reserve(256 + scenario.description.size() +
              links.Size() * (with_power ? 6 : 5) * 25);
  // 17 *significant* digits round-trip every double, so shrunk boundary
  // instances replay bit-identically. %g, not util::FormatDouble's fixed
  // %f, which drops significance below 1e-17 absolute.
  const auto key = [&out](const char* name, double value) {
    out += name;
    out += " = ";
    util::AppendDoubleG17(out, value);
    out += '\n';
  };
  out += kMagic;
  out += "\n# description: ";
  out += scenario.description;
  out += '\n';
  key("alpha", scenario.params.alpha);
  key("epsilon", scenario.params.epsilon);
  key("gamma_th", scenario.params.gamma_th);
  key("tx_power", scenario.params.tx_power);
  key("noise_power", scenario.params.noise_power);
  out += "links:\n";
  // The link block reuses scenario_io's CSV schema, but at full precision:
  // rebuild the cells here instead of calling ToCsv (12 digits).
  out += with_power ? "sx,sy,rx,ry,rate,tx_power\n" : "sx,sy,rx,ry,rate\n";
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    const double cells[] = {links.Sender(i).x,   links.Sender(i).y,
                            links.Receiver(i).x, links.Receiver(i).y,
                            links.Rate(i),       links.TxPower(i)};
    for (std::size_t c = 0; c < (with_power ? 6u : 5u); ++c) {
      if (c > 0) out += ',';
      util::AppendDoubleG17(out, cells[c]);
    }
    out += '\n';
  }
  return out;
}

ScenarioCase ParseScenario(std::string_view text, std::uint64_t* fnv) {
  std::string_view rest = text;
  std::string_view line;
  std::size_t line_no = 1;
  const auto where = [&] {
    return "scenario file line " + std::to_string(line_no);
  };

  ScenarioCase result;
  const bool has_magic = util::PopLine(rest, &line);
  FS_CHECK_MSG(has_magic && util::Trim(line) == kMagic,
               "scenario file line 1: missing header '" + std::string(kMagic) +
                   "'");

  bool saw_links = false;
  std::array<bool, 5> seen{};  // alpha, epsilon, gamma_th, tx_power, noise
  while (util::PopLine(rest, &line)) {
    ++line_no;
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty()) continue;
    constexpr std::string_view kDescription = "# description:";
    if (util::StartsWith(trimmed, kDescription)) {
      result.description = util::Trim(trimmed.substr(kDescription.size()));
      continue;
    }
    if (trimmed[0] == '#') continue;
    if (trimmed == "links:") {
      saw_links = true;
      break;
    }
    const auto eq = trimmed.find('=');
    FS_CHECK_MSG(eq != std::string_view::npos,
                 where() + ": expected 'key = value' or 'links:'");
    const std::string_view key = util::Trim(trimmed.substr(0, eq));
    const auto value = util::ParseDouble(trimmed.substr(eq + 1));
    FS_CHECK_MSG(value.has_value(), where() + ": malformed value for key '" +
                                        std::string(key) + "'");
    if (key == "alpha") {
      result.params.alpha = *value;
      seen[0] = true;
    } else if (key == "epsilon") {
      result.params.epsilon = *value;
      seen[1] = true;
    } else if (key == "gamma_th") {
      result.params.gamma_th = *value;
      seen[2] = true;
    } else if (key == "tx_power") {
      result.params.tx_power = *value;
      seen[3] = true;
    } else if (key == "noise_power") {
      result.params.noise_power = *value;
      seen[4] = true;
    } else {
      FS_CHECK_MSG(false, where() + ": unknown key '" + std::string(key) + "'");
    }
  }
  FS_CHECK_MSG(saw_links, "scenario file: missing 'links:' block");
  for (std::size_t k = 0; k < seen.size(); ++k) {
    static constexpr const char* kKeys[] = {"alpha", "epsilon", "gamma_th",
                                            "tx_power", "noise_power"};
    FS_CHECK_MSG(seen[k], "scenario file: missing key '" +
                              std::string(kKeys[k]) + "'");
  }
  result.params.Validate();

  // The rest of the text is the scenario_io CSV block; ParseLinkCsv
  // reports malformed values as "scenario row N" relative to this block.
  FS_CHECK_MSG(!util::Trim(rest).empty(),
               "scenario file: truncated after 'links:' — missing CSV "
               "header row");
  if (fnv != nullptr) {
    *fnv = util::Fnv1a64(text.substr(0, text.size() - rest.size()), *fnv);
  }
  if (std::optional<net::LinkSet> links = net::ParseLinkRows(rest, fnv)) {
    result.links = std::move(*links);
    return result;
  }
  result.links = net::ParseLinkCsv(rest);
  if (fnv != nullptr) *fnv = util::Fnv1a64(rest, *fnv);
  return result;
}

void SaveScenarioFile(const ScenarioCase& scenario, const std::string& path) {
  util::AtomicWriteFile(path, FormatScenario(scenario));
}

ScenarioCase LoadScenarioFile(const std::string& path) {
  return ParseScenario(util::ReadFileToString(path));
}

}  // namespace fadesched::testing
