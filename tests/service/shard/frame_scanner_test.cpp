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
//   * the one-pass END search carves exactly what the per-line walk it
//     replaced carved (a reference copy below), and a receive window
//     never lets more than max_frame_bytes + 1 bytes pend;
//   * the routing key depends on (scenario payload, scheduler) and
//     nothing else, so repeats of a scenario land on the same shard no
//     matter what id= or check= their headers carry, and it is the key
//     the worker's raw cache level probes with.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/request.hpp"
#include "service/shard/frame_scanner.hpp"
#include "service/shard/hash_ring.hpp"
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

// The per-line carve the one-pass search replaced, kept as the
// reference: one memchr per line, every line closed up behind a stripped
// '\r', a line count kept for the guards, and the carved prefix erased
// at the end of each drain.
class PerLineScanner {
 public:
  void Feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  std::vector<ScanEvent> Drain() {
    std::vector<ScanEvent> events;
    char* const base = buffer_.data();
    std::size_t frame = 0;
    std::size_t line = frame_end_;
    while (const void* newline = std::memchr(base + scanned_, '\n',
                                             buffer_.size() - scanned_)) {
      const std::size_t end = static_cast<const char*>(newline) - base;
      const std::size_t length =
          end - line - (end > line && base[end - 1] == '\r');
      const std::string_view text(base + line, length);
      line = scanned_ = end + 1;
      const bool stats = lines_ == 0 && text == kStatsVerb;
      if (stats || text == kFrameEnd) {
        events.push_back(
            {stats ? ScanEvent::Kind::kStats : ScanEvent::Kind::kFrame,
             std::string(base + frame, frame_end_ - frame)});
        frame = frame_end_ = line;
        lines_ = 0;
        continue;
      }
      if (text.data() != base + frame_end_) {
        std::memmove(base + frame_end_, text.data(), length);
      }
      base[frame_end_ + length] = '\n';
      frame_end_ += length + 1;
      ++lines_;
    }
    buffer_.erase(frame_end_, line - frame_end_);
    buffer_.erase(0, frame);
    frame_end_ -= frame;
    scanned_ = buffer_.size();
    return events;
  }

  /// The three guard texts, in the scanner's wording, for `cap` and a
  /// deadline long past.
  std::vector<std::string> Guards(std::size_t cap) const {
    if (buffer_.empty()) return {"-", "-", "-"};
    return {buffer_.size() <= cap
                ? "-"
                : "request frame line " + std::to_string(lines_ + 1) +
                      ": frame exceeds max_frame_bytes=" +
                      std::to_string(cap) + " (" +
                      std::to_string(buffer_.size()) +
                      " bytes buffered) — rejected, connection closed",
            "read deadline: frame stalled after " + std::to_string(lines_) +
                " line(s) with no byte for " + std::to_string(0.5) +
                " s — connection evicted",
            TruncatedFrameMessage(lines_)};
  }

 private:
  std::string buffer_;
  std::size_t frame_end_ = 0;
  std::size_t scanned_ = 0;
  std::size_t lines_ = 0;
};

std::vector<std::string> Guards(const FrameScanner& scanner, std::size_t cap) {
  return {scanner.Oversized(cap).value_or("-"),
          scanner.Stalled(0.5, FrameScanner::Clock::now() +
                                   std::chrono::hours(1))
              .value_or("-"),
          scanner.TruncatedAtEof().value_or("-")};
}

std::string Describe(const std::vector<ScanEvent>& events) {
  std::string out;
  for (const ScanEvent& event : events) {
    out += event.kind == ScanEvent::Kind::kStats ? "[STATS]" : "[frame]";
    out += event.frame;
  }
  return out;
}

/// Carves `wire` cut at `cuts` on both scanners and requires the same
/// events and guard texts after every window. The scanner under test
/// receives every other piece through ReceiveWindow (the front-ends'
/// path) and the rest through Feed.
void ExpectSameCarve(const std::string& wire, std::vector<std::size_t> cuts,
                     std::size_t cap) {
  cuts.push_back(wire.size());
  PerLineScanner reference;
  FrameScanner scanner;
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    const std::size_t size = cut - at;
    const std::span<char> window = scanner.ReceiveWindow(SIZE_MAX);
    if (cut % 2 == 0 && size <= window.size()) {
      std::memcpy(window.data(), wire.data() + at, size);
      scanner.Received(size);
    } else {
      scanner.Feed(wire.data() + at, size);
    }
    reference.Feed(wire.data() + at, size);
    const std::vector<ScanEvent> got = scanner.Drain();
    const std::vector<ScanEvent> want = reference.Drain();
    ASSERT_EQ(Describe(got), Describe(want))
        << "window ending at byte " << cut << " of:\n" << wire;
    ASSERT_EQ(Guards(scanner, cap), reference.Guards(cap))
        << "window ending at byte " << cut << " of:\n" << wire;
    at = cut;
  }
}

// Lines chosen to sit next to the search's edges: the terminator's
// prefixes and near-misses, the STATS verb, upper-case words, a lone
// '\r' mid-line, and a line of nothing but '\r'.
constexpr const char* kLines[] = {
    "1.25,-3.5e-07,7,0.5",
    "REQUEST id=a scheduler=rle check=0123456789abcdef",
    "# description: the END of the road",
    "END",
    "ENDX",
    "XEND",
    "NaN",
    "STATS",
    "E",
    "EN",
    "",
    "a\rb",
    "\r",
    "links:",
    "EXTRA,ROW",
};

/// A seeded stream: frames (some empty), STATS verbs between them, and
/// sometimes a trailing partial frame. Each line ends in LF, CRLF, or
/// either at random, per the stream's style. Half the streams then have
/// a few bytes overwritten, as a corrupting wire would, often with a
/// byte the carve looks for.
std::string RandomStream(std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t style = pick(3);  // 0 LF, 1 CRLF, 2 mixed
  const auto eol = [&] {
    return style == 1 || (style == 2 && pick(2) == 0) ? "\r\n" : "\n";
  };
  std::string wire;
  const std::size_t events = 1 + pick(5);
  for (std::size_t e = 0; e < events; ++e) {
    if (pick(4) == 0) {
      wire += std::string(kStatsVerb) + eol();
      continue;
    }
    const std::size_t lines = pick(6);
    for (std::size_t l = 0; l < lines; ++l) {
      wire += kLines[pick(std::size(kLines))];
      wire += eol();
    }
    wire += std::string(kFrameEnd) + eol();
  }
  if (pick(2) == 0) {
    const std::size_t partial = pick(4);
    for (std::size_t l = 0; l < partial; ++l) {
      wire += kLines[pick(std::size(kLines))];
      wire += eol();
    }
    wire += std::string(kLines[pick(std::size(kLines))]).substr(0, pick(4));
  }
  if (!wire.empty() && pick(2) == 0) {
    constexpr std::string_view kSearched = "\r\nEND";
    for (std::size_t flips = 1 + pick(3); flips > 0; --flips) {
      wire[pick(wire.size())] = pick(2) == 0
                                    ? kSearched[pick(kSearched.size())]
                                    : static_cast<char>(pick(256));
    }
  }
  return wire;
}

TEST(FrameScannerCarveDifferentialTest, HandPickedWiresAtEverySplit) {
  const std::string wires[] = {
      // LF, CRLF and mixed endings.
      "H a=1\nrow\nEND\n",
      "H a=1\r\nrow\r\nEND\r\n",
      "H a=1\r\nrow\nEND\r\nH b=2\nEND\n",
      // A lone '\r' mid-line stays; only a '\r' before '\n' goes.
      "H a=1\nx\ry\nEND\n",
      "H a=1\n\r\nEND\n",
      // Near-misses of the terminator, and END inside a description.
      "H a=1\nENDX\nXEND\nNaN\n# description: END\nEND\n",
      "H a=1\nEN\nE\nEND",
      // STATS is a verb only at a frame's first line.
      "STATS\nH a=1\nSTATS\nEND\nSTATS\r\n",
      // The empty frame, and back-to-back frames in one window.
      "END\nEND\r\nH a=1\nEND\nH b=2\nEND\nSTATS\n",
      // Frames whose first line looks like a terminator's prefix.
      "ENDX\nEND\nE\nEND\n",
      // A frame cut off mid-line, for the guards.
      "H a=1\nrow\r\nro",
  };
  for (const std::string& wire : wires) {
    ExpectSameCarve(wire, {}, 8);
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      ExpectSameCarve(wire, {cut}, 8);
      for (std::size_t second = cut + 1; second < wire.size(); ++second) {
        ExpectSameCarve(wire, {cut, second}, 8);
      }
    }
  }
}

TEST(FrameScannerCarveDifferentialTest, SeededStreamsUnderRandomChunking) {
  std::mt19937_64 rng(20261019);
  for (int stream = 0; stream < 400; ++stream) {
    const std::string wire = RandomStream(rng);
    const std::size_t cap = 4 + rng() % 64;
    for (const std::size_t max_chunk : {1UL, 4UL, 16UL, 256UL}) {
      std::vector<std::size_t> cuts;
      for (std::size_t at = 1 + rng() % max_chunk; at < wire.size();
           at += 1 + rng() % max_chunk) {
        cuts.push_back(at);
      }
      ExpectSameCarve(wire, cuts, cap);
    }
  }
}

// Fills receive windows from `wire` as the front-ends' recv would,
// carving after each one, until the wire runs out or the guard fires.
// Returns the frames carved and the guard's text, if it fired.
std::pair<std::vector<std::string>, std::optional<std::string>> ReceiveAll(
    const std::string& wire, std::size_t cap, std::size_t max_recv) {
  FrameScanner scanner;
  std::vector<std::string> frames;
  for (std::size_t at = 0; at < wire.size();) {
    const std::span<char> window = scanner.ReceiveWindow(cap);
    if (window.empty()) {
      ADD_FAILURE() << "an empty receive window below the cap";
      break;
    }
    const std::size_t size =
        std::min({window.size(), wire.size() - at, max_recv});
    std::memcpy(window.data(), wire.data() + at, size);
    scanner.Received(size);
    at += size;
    while (const auto event = scanner.Carve()) {
      frames.emplace_back(event->frame);
    }
    if (auto oversized = scanner.Oversized(cap)) {
      return {frames, oversized};
    }
  }
  return {frames, std::nullopt};
}

TEST(FrameScannerTest, ReceiveWindowHoldsAtMostTheCapPlusOneByte) {
  const std::string line = "REQUEST id=big scheduler=rle\n" +
                           std::string(8192, 'a');
  for (const std::size_t max_recv : {1UL, 1000UL, 1UL << 20}) {
    const auto [frames, oversized] = ReceiveAll(line, 4096, max_recv);
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(oversized,
              "request frame line 2: frame exceeds max_frame_bytes=4096 "
              "(4097 bytes buffered) — rejected, connection closed")
        << "max_recv=" << max_recv;
  }
  // A frame whose lines and END line fill exactly cap + 1 bytes is
  // carved; one byte more and it is rejected, however it arrives.
  const std::string fits = std::string(4092, 'b') + "\nEND\n";
  ASSERT_EQ(fits.size(), 4097u);
  const std::string wire = fits + "H\nEND\n";
  for (const std::size_t max_recv : {1UL, 1000UL, 1UL << 20}) {
    const auto [frames, oversized] = ReceiveAll(wire, 4096, max_recv);
    EXPECT_EQ(frames, (std::vector<std::string>{
                          std::string(4092, 'b') + "\n", "H\n"}));
    EXPECT_FALSE(oversized);
    const auto [none, rejected] = ReceiveAll("c" + wire, 4096, max_recv);
    EXPECT_TRUE(none.empty());
    EXPECT_NE(rejected.value_or("").find("(4097 bytes buffered)"),
              std::string::npos);
  }
}

TEST(FrameScannerTest, ViewsStayValidUntilTheNextReceive) {
  const std::string wire = "H a=1\nrow\nEND\nSTATS\nH b=2\nEND\nH c";
  FrameScanner scanner;
  const std::span<char> window = scanner.ReceiveWindow(1 << 20);
  ASSERT_GE(window.size(), FrameScanner::kReceiveWindowBytes);
  std::memcpy(window.data(), wire.data(), wire.size());
  scanner.Received(wire.size());
  std::vector<CarvedFrame> events;
  while (const auto event = scanner.Carve()) events.push_back(*event);
  ASSERT_EQ(events.size(), 3u);
  // Carving on past a view leaves it untouched; so does a guard query.
  EXPECT_FALSE(scanner.Oversized(1 << 20));
  EXPECT_EQ(events[0].frame, "H a=1\nrow\n");
  EXPECT_EQ(events[1].kind, CarvedFrame::Kind::kStats);
  EXPECT_EQ(events[2].frame, "H b=2\n");
  EXPECT_TRUE(scanner.MidFrame());
}

TEST(RoutingKeyTest, IgnoresIdAndChecksum) {
  // Same scenario, same scheduler, different request ids (and therefore
  // different check= values): the fingerprint must coincide so repeat
  // traffic lands on the warm shard.
  EXPECT_EQ(RoutingKey(Frame(0, "first")), RoutingKey(Frame(0, "second")));
}

TEST(RoutingKeyTest, DependsOnTheScenarioAlone) {
  EXPECT_NE(RoutingKey(Frame(0, "a")), RoutingKey(Frame(1, "a")))
      << "different scenarios must route independently";
  EXPECT_EQ(RoutingKey(Frame(0, "a", "rle")), RoutingKey(Frame(0, "b", "ldp")))
      << "the scheduler is not part of the key: a topology routes once";
}

// The router routes by the key the worker's payload level is indexed
// by, so a repeat lands where its payload is resident; carrying the
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
    EXPECT_EQ(RoutingKey(frame), WordHash64(ParseRequestHeader(frame).payload))
        << "case " << i;
  }
}

// The paper's comparison sends each topology under every scheduler; the
// tier builds its engine once only if all of them reach one shard.
TEST(RoutingKeyTest, OneTopologyUnderEverySchedulerRoutesToOneShard) {
  const char* const schedulers[] = {"rle", "ldp", "approx_logn",
                                    "approx_diversity", "fading_greedy"};
  for (const std::size_t shards : {2u, 4u, 8u}) {
    HashRingOptions options;
    options.num_shards = shards;
    const HashRing ring(options);
    std::vector<bool> used(shards, false);
    for (std::uint64_t topology = 0; topology < 32; ++topology) {
      const std::size_t first = ring.ShardFor(RoutingKey(Frame(topology, "t")));
      used[first] = true;
      for (std::size_t s = 0; s < std::size(schedulers); ++s) {
        const std::string frame =
            Frame(topology, "t" + std::to_string(s), schedulers[s]);
        EXPECT_EQ(ring.ShardFor(RoutingKey(frame)), first)
            << shards << " shards, topology " << topology << ", "
            << schedulers[s];
      }
    }
    EXPECT_GT(std::count(used.begin(), used.end(), true), 1)
        << "every topology on one shard is no spread";
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
