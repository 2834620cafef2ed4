// Decode-path equivalence. The request decoder parses frames and link
// rows straight from the received bytes, so two properties pin it:
//
//   * every fuzzed request — extreme channel parameters, weighted rates,
//     per-link powers, ambient noise, every topology family — survives
//     FormatRequestFrame → ParseRequestFrame with an identical
//     fingerprint (canonical bytes, not just near-equal values), id,
//     scheduler, deadline and description;
//   * hand-written spellings of one scenario (CRLF, blank lines, trailing
//     spaces, reordered and extra CSV columns, quoted cells, comment
//     lines, no final newline) all decode to the same LinkSet, whether
//     parsed as a scenario or carved from wire bytes as a signed frame.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "net/link_set.hpp"
#include "net/scenario_io.hpp"
#include "service/protocol.hpp"
#include "service/request.hpp"
#include "service/shard/frame_scanner.hpp"
#include "testing/corpus.hpp"
#include "testing/fuzzer.hpp"
#include "util/check.hpp"

namespace fadesched::service {
namespace {

using fadesched::testing::ScenarioCase;

/// The frame minus its END line: what the scanner hands the parser.
std::string Body(const std::string& frame) {
  return frame.substr(0, frame.size() - 4);
}

std::string Canonical(const ScenarioCase& scenario) {
  SchedulingRequest request;
  request.scenario = scenario;
  request.scheduler = "rle";
  return FingerprintRequest(request).canonical_scenario;
}

/// Every third link gets its own transmit power (the power-control
/// extension), so the optional tx_power column is exercised.
net::LinkSet WithPerLinkPowers(const net::LinkSet& links) {
  net::LinkSet out;
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    net::Link link = links.At(i);
    if (i % 3 == 0) link.tx_power = 0.25 + 0.5 * static_cast<double>(i);
    out.Add(link);
  }
  return out;
}

TEST(ProtocolPropertyTest, FuzzedFramesRoundTripToTheSameFingerprint) {
  const char* const kSchedulers[] = {"rle", "ldp", "fading_greedy"};
  std::set<std::string> families;
  for (const std::uint64_t seed : {1ull, 42ull, 20260805ull}) {
    fadesched::testing::FuzzerOptions options;
    options.extreme_params = true;
    options.weighted_rates = true;
    options.with_noise = true;
    const fadesched::testing::ScenarioFuzzer fuzzer(seed, options);
    for (std::uint64_t index = 0; index < 60; ++index) {
      SchedulingRequest request;
      request.scenario = fuzzer.Case(index);
      if (index % 2 == 1) {
        request.scenario.links = WithPerLinkPowers(request.scenario.links);
      }
      request.id = "p" + std::to_string(seed) + "-" + std::to_string(index);
      request.scheduler = kSchedulers[index % 3];
      if (index % 4 == 0) {
        request.deadline_seconds = 0.125 * static_cast<double>(index + 1);
      }

      const SchedulingRequest parsed =
          ParseRequestFrame(Body(FormatRequestFrame(request)));
      const Fingerprint want = FingerprintRequest(request);
      const Fingerprint got = FingerprintRequest(parsed);
      ASSERT_EQ(got.canonical_scenario, want.canonical_scenario)
          << request.scenario.description;
      ASSERT_EQ(got.request_hash, want.request_hash);
      EXPECT_EQ(parsed.id, request.id);
      EXPECT_EQ(parsed.scheduler, request.scheduler);
      EXPECT_EQ(parsed.deadline_seconds, request.deadline_seconds);
      EXPECT_EQ(parsed.scenario.description, request.scenario.description);

      const std::string& description = request.scenario.description;
      const std::size_t at = description.find("topology=");
      ASSERT_NE(at, std::string::npos) << description;
      families.insert(description.substr(
          at, description.find(' ', at) - at));
    }
  }
  EXPECT_EQ(families.size(), 6u) << "every topology family must be covered";
}

constexpr const char* kKeyBlock =
    "# fadesched scenario v1\n"
    "# description: hand-written\n"
    "alpha = 3.5\n"
    "epsilon = 0.01\n"
    "gamma_th = 1\n"
    "tx_power = 2\n"
    "noise_power = 0\n"
    "links:\n";

constexpr const char* kLinkBlock =
    "sx,sy,rx,ry,rate\n"
    "0,0,1,0,1\n"
    "2.5,3,4,3,2\n"
    "-7.25,1e2,-6,100.5,0.5\n";

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (std::size_t at = 0; (at = text.find(from, at)) != std::string::npos;
       at += to.size()) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// The same scenario spelled every way the grammar allows.
std::vector<std::pair<std::string, std::string>> Spellings() {
  const std::string base = std::string(kKeyBlock) + kLinkBlock;
  return {
      {"canonical", base},
      {"crlf", ReplaceAll(base, "\n", "\r\n")},
      {"blank lines between rows",
       std::string(kKeyBlock) +
           "sx,sy,rx,ry,rate\n\n0,0,1,0,1\n   \n\n2.5,3,4,3,2\n\t\n"
           "-7.25,1e2,-6,100.5,0.5\n\n"},
      {"trailing spaces",  // not on the CSV header: its names are exact
       ReplaceAll(kKeyBlock, "\n", "  \n") + "sx,sy,rx,ry,rate\n" +
           ReplaceAll(std::string(kLinkBlock).substr(17), "\n", " \t \n")},
      {"spaces around cells",
       std::string(kKeyBlock) +
           "sx,sy,rx,ry,rate\n 0 , 0,1 ,0,1\n2.5, 3,4 ,3,2\n"
           "-7.25 ,1e2,-6, 100.5 ,0.5\n"},
      {"reordered and extra columns",
       std::string(kKeyBlock) +
           "rate,note,ry,rx,sy,sx,id\n"
           "1,first,0,1,0,0,a\n"
           "2,second,3,4,3,2.5,b\n"
           "0.5,third,100.5,-6,1e2,-7.25,c\n"},
      {"quoted numeric cells",
       std::string(kKeyBlock) +
           "\"sx\",sy,\"rx\",ry,rate\n"
           "\"0\",0,1,\"0\",\"1\"\n"
           "2.5,\"3\",4,3,2\n"
           "\"-7.25\",1e2,\"-6\",100.5,0.5\n"},
      {"comment lines in the key block",
       "# fadesched scenario v1\n"
       "# description: hand-written\n"
       "# a comment\n"
       "alpha = 3.5\n"
       "\n"
       "epsilon=0.01\n"
       "   # an indented comment\n"
       "gamma_th =1\n"
       "tx_power= 2\n"
       "noise_power = 0\n"
       "#links: is only a keyword when it is the whole line\n"
       "links:\n" +
           std::string(kLinkBlock)},
      {"no final newline", base.substr(0, base.size() - 1)},
  };
}

TEST(ProtocolPropertyTest, HandWrittenSpellingsParseToTheSameLinkSet) {
  const ScenarioCase reference =
      fadesched::testing::ParseScenario(std::string(kKeyBlock) + kLinkBlock);
  ASSERT_EQ(reference.links.Size(), 3u);
  EXPECT_EQ(reference.links.Sender(2).y, 100.0);
  EXPECT_EQ(reference.params.alpha, 3.5);
  for (const auto& [name, text] : Spellings()) {
    const ScenarioCase parsed = fadesched::testing::ParseScenario(text);
    EXPECT_EQ(Canonical(parsed), Canonical(reference)) << name;
    EXPECT_EQ(parsed.description, "hand-written") << name;
  }
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// A frame signed over exactly `payload`, as a client would send it.
std::string SignedFrame(const std::string& payload, const std::string& eol) {
  const std::string header = "REQUEST id=hand scheduler=rle";
  const std::uint64_t check = Fnv1a64(payload, Fnv1a64("\n", Fnv1a64(header)));
  return header + " check=" + Hex(check) + eol + payload + "END" + eol;
}

TEST(ProtocolPropertyTest, HandWrittenFramesDecodeToTheSameLinkSet) {
  const std::string reference =
      Canonical(fadesched::testing::ParseScenario(std::string(kKeyBlock) +
                                                  kLinkBlock));
  for (auto [name, payload] : Spellings()) {
    if (name == "crlf") continue;  // the wire form of CRLF is below
    if (payload.back() != '\n') continue;  // a frame line always ends
    const std::string frame = SignedFrame(payload, "\n");
    EXPECT_EQ(Canonical(ParseRequestFrame(Body(frame)).scenario), reference)
        << name;
  }
  // CRLF on the wire: the scanner strips each line's '\r', so the frame
  // it carves is the LF frame the client signed.
  const std::string lf_payload = std::string(kKeyBlock) + kLinkBlock;
  const std::string wire =
      ReplaceAll(SignedFrame(lf_payload, "\n"), "\n", "\r\n");
  shard::FrameScanner scanner;
  scanner.Feed(wire.data(), wire.size());
  const std::vector<shard::ScanEvent> events = scanner.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(Canonical(ParseRequestFrame(events[0].frame).scenario), reference);
}

TEST(ProtocolPropertyTest, ColumnCountErrorsNameTheRowThroughTheScenario) {
  const std::string text = std::string(kKeyBlock) +
                           "sx,sy,rx,ry,rate\n0,0,1,0,1\n\n2.5,3,4\n";
  try {
    (void)fadesched::testing::ParseScenario(text);
    FAIL() << "expected CheckFailure";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(
        std::string(e.what()).find("CSV row 2: expected 5 columns, got 3"),
        std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fadesched::service
