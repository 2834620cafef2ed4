// The router's per-connection scanner: carves whole frames and bare
// STATS verbs out of arbitrary byte chunks without parsing anything, and
// derives the routing fingerprint. Contracts:
//
//   * frames survive any chunking byte-identically (the worker checksums
//     exactly what the client sent — the router must not reassemble
//     lossily);
//   * CRLF wire carves to the same bytes as LF wire;
//   * STATS is a verb only BETWEEN frames — inside a frame it's payload;
//   * the connection guards' texts are the front-ends' error messages;
//   * the routing key depends on (scenario payload, scheduler) and
//     nothing else, so repeats of a scenario land on the same shard no
//     matter what id= or check= their headers carry, and it is the key
//     the worker's raw cache level probes with.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/request.hpp"
#include "service/shard/frame_scanner.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::service::shard {
namespace {

std::string Frame(std::uint64_t case_index, const std::string& id,
                  const std::string& scheduler = "rle") {
  fadesched::testing::ScenarioFuzzer fuzzer(3);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = scheduler;
  request.id = id;
  return FormatRequestFrame(request);
}

/// Feeds `wire` in `chunk`-byte pieces, draining after each.
std::vector<ScanEvent> ScanInChunks(FrameScanner& scanner,
                                    const std::string& wire,
                                    std::size_t chunk) {
  std::vector<ScanEvent> events;
  for (std::size_t at = 0; at < wire.size(); at += chunk) {
    scanner.Feed(wire.data() + at, std::min(chunk, wire.size() - at));
    for (auto& event : scanner.Drain()) events.push_back(std::move(event));
  }
  return events;
}

std::string WithCrlf(const std::string& lf) {
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  return crlf;
}

TEST(FrameScannerTest, CarvesFramesByteIdenticallyUnderChunking) {
  const std::string f1 = Frame(0, "a");
  const std::string f2 = Frame(1, "b");
  // The CRLF wire ends each frame in "END\r\n"; its 1-byte chunking puts
  // a chunk boundary between every '\r' and its '\n'.
  for (const std::string& wire : {f1 + f2, WithCrlf(f1 + f2)}) {
    for (const std::size_t chunk : {1UL, 3UL, 7UL, wire.size()}) {
      FrameScanner scanner;
      const std::vector<ScanEvent> events =
          ScanInChunks(scanner, wire, chunk);
      ASSERT_EQ(events.size(), 2u) << "chunk=" << chunk;
      EXPECT_EQ(events[0].kind, ScanEvent::Kind::kFrame);
      // The scanner's frame is every line up to (but not including) the
      // END terminator, LF-normalized. The serialized frame is already
      // LF-terminated, so the bytes must match the formatted frame minus
      // its "END\n" exactly — this is what lets the worker verify the
      // client's check= untouched.
      const auto body = [](const std::string& frame) {
        constexpr std::string_view kTerminator = "END\n";
        return frame.substr(0, frame.size() - kTerminator.size());
      };
      EXPECT_EQ(events[0].frame, body(f1)) << "chunk=" << chunk;
      EXPECT_EQ(events[1].frame, body(f2)) << "chunk=" << chunk;
      EXPECT_FALSE(scanner.MidFrame());
    }
  }
}

TEST(FrameScannerTest, StatsIsAVerbOnlyBetweenFrames) {
  const std::string frame_with_stats_line =
      "not-a-header x=1\nSTATS\nEND\n";
  FrameScanner scanner;
  const std::string wire =
      std::string(kStatsVerb) + "\n" + frame_with_stats_line +
      std::string(kStatsVerb) + "\r\n";
  scanner.Feed(wire.data(), wire.size());
  const std::vector<ScanEvent> events = scanner.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, ScanEvent::Kind::kStats);
  EXPECT_EQ(events[1].kind, ScanEvent::Kind::kFrame);
  EXPECT_NE(events[1].frame.find("STATS\n"), std::string::npos)
      << "STATS inside a frame must stay payload";
  EXPECT_EQ(events[2].kind, ScanEvent::Kind::kStats);
}

TEST(FrameScannerTest, MidFrameTracksPartialInput) {
  FrameScanner scanner;
  EXPECT_FALSE(scanner.MidFrame());
  const std::string partial = "header line\nscenario";
  scanner.Feed(partial.data(), partial.size());
  EXPECT_TRUE(scanner.Drain().empty());
  EXPECT_TRUE(scanner.MidFrame()) << "buffered half-line counts";
  const std::string rest = " rest\nEND\n";
  scanner.Feed(rest.data(), rest.size());
  EXPECT_EQ(scanner.Drain().size(), 1u);
  EXPECT_FALSE(scanner.MidFrame());
}

// The guards' texts are the errors both front-ends send; these pin the
// wording the clients and the chaos soak see, with no socket involved.
TEST(FrameScannerTest, OversizedNamesTheCapAndTheBufferedBytes) {
  const std::string wire =
      "REQUEST id=big scheduler=rle\n" + std::string(8192, 'a');
  FrameScanner scanner;
  scanner.Feed(wire.data(), wire.size());
  EXPECT_TRUE(scanner.Drain().empty());
  EXPECT_FALSE(scanner.Oversized(wire.size())) << "the cap itself fits";
  EXPECT_EQ(scanner.Oversized(4096),
            "request frame line 2: frame exceeds max_frame_bytes=4096 (8221 "
            "bytes buffered) — rejected, connection closed");

  // A stripped '\r' is not buffered, so CRLF counts the same bytes.
  FrameScanner crlf;
  const std::string crlf_wire = WithCrlf(wire);
  crlf.Feed(crlf_wire.data(), crlf_wire.size());
  EXPECT_TRUE(crlf.Drain().empty());
  EXPECT_EQ(crlf.Oversized(4096), scanner.Oversized(4096));
}

TEST(FrameScannerTest, StalledFiresOnlyMidFramePastTheDeadline) {
  using Clock = FrameScanner::Clock;
  FrameScanner scanner;
  const Clock::time_point before = Clock::now();
  EXPECT_FALSE(scanner.Stalled(0.3, before + std::chrono::hours(1)))
      << "idle between frames is never a stall";
  const std::string header = "REQUEST id=slow scheduler=rle\n";
  scanner.Feed(header.data(), header.size());
  EXPECT_TRUE(scanner.Drain().empty());
  const Clock::time_point after = Clock::now();
  EXPECT_FALSE(scanner.Stalled(0.3, before)) << "Feed stamps the last byte";
  EXPECT_EQ(scanner.Stalled(0.3, after + std::chrono::seconds(1)),
            "read deadline: frame stalled after 1 line(s) with no byte for "
            "0.300000 s — connection evicted");
  EXPECT_FALSE(scanner.Stalled(0.0, after + std::chrono::hours(1)))
      << "a zero deadline disables the guard";
}

TEST(FrameScannerTest, TruncatedAtEofCountsCompleteLines) {
  FrameScanner scanner;
  EXPECT_FALSE(scanner.TruncatedAtEof());
  const std::string lines = "REQUEST id=t scheduler=rle\nrow one\nrow two\n";
  scanner.Feed(lines.data(), lines.size());
  EXPECT_TRUE(scanner.Drain().empty());
  EXPECT_EQ(scanner.TruncatedAtEof(),
            "truncated request frame after 3 line(s) — missing END "
            "terminator");

  // A partial first line is mid-frame too: zero complete lines.
  FrameScanner partial;
  const std::string bytes = "REQUEST id=x sch";
  partial.Feed(bytes.data(), bytes.size());
  EXPECT_TRUE(partial.Drain().empty());
  EXPECT_EQ(partial.TruncatedAtEof(), TruncatedFrameMessage(0));
  EXPECT_NE(TruncatedFrameMessage(0).find("after 0 line(s)"),
            std::string::npos);
}

TEST(RoutingKeyTest, IgnoresIdAndChecksum) {
  // Same scenario, same scheduler, different request ids (and therefore
  // different check= values): the fingerprint must coincide so repeat
  // traffic lands on the warm shard.
  EXPECT_EQ(RoutingKey(Frame(0, "first")), RoutingKey(Frame(0, "second")));
}

TEST(RoutingKeyTest, DependsOnScenarioAndScheduler) {
  EXPECT_NE(RoutingKey(Frame(0, "a")), RoutingKey(Frame(1, "a")))
      << "different scenarios must fingerprint differently";
  EXPECT_NE(RoutingKey(Frame(0, "a", "rle")), RoutingKey(Frame(0, "a", "ldp")))
      << "scheduler is part of the cache key, so also of the fingerprint";
}

// The router routes by the key the worker's raw cache level probes
// with, so a repeat lands where its payload is resident; carrying the
// router's key to the worker instead of rehashing rests on this.
TEST(RoutingKeyTest, EqualsTheWorkersPayloadKey) {
  fadesched::testing::ScenarioFuzzer fuzzer(17);
  const char* const schedulers[] = {"rle", "ldp", "approx_diversity"};
  for (std::uint64_t i = 0; i < 24; ++i) {
    SchedulingRequest request;
    request.scenario = fuzzer.Case(i);
    request.scheduler = schedulers[i % 3];
    request.id = "k" + std::to_string(i);
    request.deadline_seconds = static_cast<double>(i % 4) * 0.25;
    const std::string wire = FormatRequestFrame(request);
    FrameScanner scanner;
    const std::vector<ScanEvent> events = ScanInChunks(scanner, wire, 4096);
    ASSERT_EQ(events.size(), 1u);
    const std::string& frame = events[0].frame;
    const RequestHeader h = ParseRequestHeader(frame);
    EXPECT_EQ(RoutingKey(frame), PayloadKey(h.scheduler, h.payload))
        << "case " << i;
  }
}

TEST(RoutingKeyTest, MalformedFramesRouteDeterministically) {
  const std::string garbage = "no newline at all";
  EXPECT_EQ(RoutingKey(garbage), RoutingKey(garbage));
  const std::string no_scheduler = "header-without-token\nbody\nEND\n";
  EXPECT_EQ(RoutingKey(no_scheduler), RoutingKey(no_scheduler));
  EXPECT_NE(RoutingKey(garbage), RoutingKey(no_scheduler));
}

}  // namespace
}  // namespace fadesched::service::shard
