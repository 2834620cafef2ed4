// Replayable `.scenario` corpus files: one fuzzed (or shrunk) instance —
// channel parameters plus the full link set — in a single text file, so a
// violation found by the fuzzer is a checked-in regression the moment the
// shrinker writes it.
//
// Format (line-oriented header, then the scenario_io CSV link block):
//
//   # fadesched scenario v1
//   # description: <free-form provenance, one line>
//   alpha = 3
//   epsilon = 0.01
//   gamma_th = 1
//   tx_power = 1
//   noise_power = 0
//   links:
//   sx,sy,rx,ry,rate
//   ...
//
// Doubles are written with 17 significant digits so a shrunk boundary
// case replays bit-identically. Parse errors name the 1-based file line
// (header) or scenario row (link block); the corpus loader test pins
// those messages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "channel/params.hpp"
#include "net/link_set.hpp"

namespace fadesched::testing {

struct ScenarioCase {
  net::LinkSet links;
  channel::ChannelParams params;
  std::string description;  ///< one-line provenance (seed, topology, check)
};

/// Serialize to the `.scenario` text format.
std::string FormatScenario(const ScenarioCase& scenario);

/// Parse the `.scenario` text format; throws CheckFailure with the
/// offending 1-based line (header) or row (link block) on malformed input.
/// The link block takes net::ParseLinkRows' one-pass path when it is
/// spelled as FormatScenario spells it, and net::ParseLinkCsv otherwise.
/// With `fnv` non-null, *fnv (an FNV-1a state) is chained over every byte
/// of `text`, folded in during that pass when it is taken: one FNV pass
/// either way.
ScenarioCase ParseScenario(std::string_view text,
                           std::uint64_t* fnv = nullptr);

/// File round-trips. Saving is atomic (temp → fsync → rename); loading
/// throws CheckFailure / HarnessError on I/O or parse failure.
void SaveScenarioFile(const ScenarioCase& scenario, const std::string& path);
ScenarioCase LoadScenarioFile(const std::string& path);

}  // namespace fadesched::testing
