// Mutation sweep over the request decoder: at every byte of a valid
// N=50 frame, one bit flip, one deletion and one insertion. No mutant may
// be accepted — the frame checksum covers every byte but the check token,
// whose spelling is canonical — and every rejection must be a typed
// util::HarnessError: kTransient for wire corruption the checksum caught,
// kFatal for a frame that no longer parses. Runs under ASan/UBSan in CI's
// fuzz-smoke job, so a decoder that reads past a view also fails here.
// The digest of every mutant's (kind, message) pins the decoder's error
// messages and their precedence: it is the value the two-pass decoder
// (a CsvReader parse, then a separate check= pass) produced, with each
// CheckFailure's old " at <file>:<line>" removed, as messages now read.
// Every mutant, END-terminated, also goes through the connection
// scanner in 1-byte and 7-byte chunks, which must carve the same events
// and leave the same pending state: a mutant's inserted '\r' or '\n'
// drives the scanner's in-place compaction under ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/shard/frame_scanner.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

constexpr std::uint64_t kOutcomeDigest = 0x7f0dcd9f6a54ab52ull;

/// What a scanner makes of `wire` fed in `chunk`-byte pieces: each
/// event's kind and bytes, then the pending bytes' guard texts.
std::vector<std::string> ScanOutcome(const std::string& wire,
                                     std::size_t chunk) {
  shard::FrameScanner scanner;
  std::vector<std::string> outcome;
  for (std::size_t at = 0; at < wire.size(); at += chunk) {
    scanner.Feed(wire.data() + at, std::min(chunk, wire.size() - at));
    for (shard::ScanEvent& event : scanner.Drain()) {
      outcome.push_back(event.kind == shard::ScanEvent::Kind::kStats
                            ? std::string(kStatsVerb)
                            : "frame:" + std::move(event.frame));
    }
  }
  outcome.push_back(scanner.TruncatedAtEof().value_or("-"));
  outcome.push_back(scanner.Oversized(0).value_or("-"));
  return outcome;
}

TEST(FrameMutationSweepTest, EveryFlipDeletionAndInsertionIsRejected) {
  fadesched::testing::FuzzerOptions options;
  options.min_links = 50;
  options.max_links = 50;
  SchedulingRequest request;
  request.scenario = fadesched::testing::ScenarioFuzzer(11, options).Case(0);
  request.id = "mutant";
  request.scheduler = "rle";
  request.deadline_seconds = 1.5;
  std::string frame = FormatRequestFrame(request);
  const std::string body = frame.substr(0, frame.size() - 4);  // no END
  ASSERT_EQ(ParseRequestFrame(body).id, "mutant");

  std::size_t transient = 0;
  std::size_t fatal = 0;
  // FNV-1a over each outcome in sweep order.
  std::uint64_t outcomes = Fnv1a64("");
  const auto record = [&](const char* kind, const std::string& message) {
    outcomes = Fnv1a64(
        std::string(kind) + '\0' + message + '\0', outcomes);
  };
  const auto expect_rejected = [&](const std::string& mutant, const char* how,
                                   std::size_t at) {
    const std::string wire = mutant + kFrameEnd + '\n';
    EXPECT_EQ(ScanOutcome(wire, 1), ScanOutcome(wire, 7))
        << how << " at byte " << at << " scans differently by chunking";
    try {
      (void)ParseRequestFrame(mutant);
      record("accepted", "");
      ADD_FAILURE() << how << " at byte " << at << " was accepted";
    } catch (const util::HarnessError& e) {
      record(util::ErrorKindName(e.kind()), e.what());
      if (e.kind() == util::ErrorKind::kTransient) {
        ++transient;
        EXPECT_NE(std::string(e.what()).find("check"), std::string::npos)
            << how << " at byte " << at << ": " << e.what();
      } else {
        ++fatal;
        EXPECT_EQ(e.kind(), util::ErrorKind::kFatal)
            << how << " at byte " << at << ": " << e.what();
      }
    } catch (const std::exception& e) {
      record("other", e.what());
      ADD_FAILURE() << how << " at byte " << at
                    << " threw a non-HarnessError: " << e.what();
    }
  };

  // Inserted bytes rotate through separators, digits, hex letters and
  // the CSV/key-block punctuation, so each lands somewhere it could
  // plausibly be misread.
  constexpr char kInserts[] = {' ', '\t', '\r', '\n', '\v', '0', '9', 'a',
                               'F', 'x', ',', '.',  '-',  '#',  '=', '\0'};
  for (std::size_t at = 0; at <= body.size(); ++at) {
    std::string inserted = body;
    inserted.insert(at, 1, kInserts[at % sizeof(kInserts)]);
    expect_rejected(inserted, "insertion", at);
    if (at == body.size()) break;

    std::string flipped = body;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << (at % 8)));
    expect_rejected(flipped, "flip", at);

    std::string deleted = body;
    deleted.erase(at, 1);
    expect_rejected(deleted, "deletion", at);
  }
  EXPECT_EQ(transient + fatal, 3 * body.size() + 1);
  EXPECT_GT(transient, 0u);
  EXPECT_GT(fatal, 0u);
  EXPECT_EQ(outcomes, kOutcomeDigest)
      << "outcome digest 0x" << std::hex << outcomes;
}

// The check token ends where the header tokenizer ends it, so any
// whitespace byte after it is part of the hashed body — a stray '\r',
// '\v' or '\f' there is not spliced away with the token.
TEST(FrameMutationSweepTest, WhitespaceAfterTheCheckTokenIsHashed) {
  SchedulingRequest request;
  request.scenario = fadesched::testing::ScenarioFuzzer(11).Case(0);
  request.id = "ws";
  request.scheduler = "rle";
  const std::string frame = FormatRequestFrame(request);
  const std::size_t header_end = frame.find('\n');
  for (const char blank : {' ', '\t', '\r', '\v', '\f'}) {
    std::string mutant = frame.substr(0, frame.size() - 4);
    mutant.insert(header_end, 1, blank);
    try {
      (void)ParseRequestFrame(mutant);
      ADD_FAILURE() << "blank " << static_cast<int>(blank) << " accepted";
    } catch (const util::HarnessError& e) {
      EXPECT_EQ(e.kind(), util::ErrorKind::kTransient) << e.what();
    }
  }
}

}  // namespace
}  // namespace fadesched::service
