// Per-connection framing, shared by both front-ends: the epoll router
// and the thread-per-connection Server. One state machine for both
// keeps their framing and their guards byte-identical:
//
//   * lines end at '\n'; a trailing '\r' is stripped (telnet-friendly);
//   * a bare STATS line between frames is a metrics query, the same
//     bytes inside a frame are scenario payload;
//   * a frame runs from its header line through the END terminator.
//
// The carve is in place: one buffer holds the pending frame's lines,
// then the bytes not yet split into lines. A stripped '\r' is closed up
// by moving later lines down, never on LF-only traffic; a complete frame
// is copied once, into its event. The scanner also owns the max-frame,
// mid-frame read-deadline and EOF-mid-frame guards and their wording;
// the front-ends only count and evict.
//
// The scanner does NOT parse or validate frames — routing must not
// depend on validity (a corrupt frame still routes to one worker, whose
// ParseRequestFrame answers with the typed error; the router stays dumb
// and all protocol policy lives in exactly one place).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fadesched::service::shard {

struct ScanEvent {
  enum class Kind {
    kFrame,  ///< a complete request frame; `frame` holds the raw bytes
    kStats,  ///< a bare STATS line between frames
  };
  Kind kind = Kind::kFrame;
  std::string frame;
};

class FrameScanner {
 public:
  using Clock = std::chrono::steady_clock;

  /// Appends raw bytes from the socket and stamps the time of the last
  /// byte; call Drain() afterwards.
  void Feed(const char* data, std::size_t size);

  /// Carves complete events out of the buffered bytes, in arrival order;
  /// a frame is its lines before END. An incomplete frame stays pending.
  std::vector<ScanEvent> Drain();

  /// True while a frame is partially assembled (or a partial line is
  /// buffered) — the idle-eviction and EOF-mid-frame guards key on this.
  [[nodiscard]] bool MidFrame() const { return !buffer_.empty(); }

  /// The guards, checked after Drain(); each returns the error to send.
  /// Oversized: the pending bytes exceed `max_frame_bytes`.
  [[nodiscard]] std::optional<std::string> Oversized(
      std::size_t max_frame_bytes) const;

  /// Mid-frame and silent for over `deadline_seconds` (0: off) at `now`.
  [[nodiscard]] std::optional<std::string> Stalled(double deadline_seconds,
                                                   Clock::time_point now) const;

  /// The peer closed its write side mid-frame.
  [[nodiscard]] std::optional<std::string> TruncatedAtEof() const;

 private:
  std::string buffer_;  ///< pending lines ('\r' stripped), then the rest
  std::size_t frame_end_ = 0;  ///< end of the pending frame's lines
  std::size_t scanned_ = 0;    ///< bytes already searched for '\n'
  std::size_t lines_ = 0;      ///< lines in the pending frame
  Clock::time_point last_byte_{};
};

/// Consistent-hash routing key of a scanned frame (the lines before its
/// END): PayloadKey of the scheduler= header token and the scenario
/// payload, the key the worker's raw cache level probes with. The id=,
/// deadline= and check= tokens are deliberately excluded so repeat
/// requests for the same (scenario, scheduler) pair land on the same
/// shard — affinity is what turns N per-process caches into one warm
/// tier. Malformed headers hash the whole frame: still deterministic, so
/// the worker that answers the typed parse error is stable too.
std::uint64_t RoutingKey(std::string_view frame);

}  // namespace fadesched::service::shard
