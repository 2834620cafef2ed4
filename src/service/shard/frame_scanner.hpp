// Per-connection framing, shared by both front-ends: the epoll router
// and the thread-per-connection Server. One state machine for both
// keeps their framing and their guards byte-identical:
//
//   * lines end at '\n'; a trailing '\r' is stripped (telnet-friendly);
//   * a bare STATS line between frames is a metrics query, the same
//     bytes inside a frame are scenario payload;
//   * a frame runs from its header line through the END terminator.
//
// The carve is zero-copy. The socket receives straight into the tail of
// the scanner's one buffer (ReceiveWindow, Received), and Carve hands
// each complete frame out as a view of its lines in place. A frame's
// END is found by one memchr pass over the new bytes for the 'E' that
// starts it, not line by line; only a window holding a '\r' walks its
// lines, to close up behind each stripped '\r'. The scanner also owns
// the max-frame, mid-frame read-deadline and EOF-mid-frame guards and
// their wording; the front-ends only count and evict. Lines are counted
// only when a guard fires.
//
// The scanner does NOT parse or validate frames — routing must not
// depend on validity (a corrupt frame still routes to one worker, whose
// ParseRequestFrame answers with the typed error; the router stays dumb
// and all protocol policy lives in exactly one place).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fadesched::service::shard {

/// A carved event. `frame` views the scanner's buffer and stays valid
/// until the next ReceiveWindow or Feed on that scanner.
struct CarvedFrame {
  enum class Kind {
    kFrame,  ///< a complete request frame: its lines before END
    kStats,  ///< a bare STATS line between frames; `frame` is empty
  };
  Kind kind = Kind::kFrame;
  std::string_view frame;
};

/// A carved event that owns its bytes (Drain's copy of a CarvedFrame).
struct ScanEvent {
  using Kind = CarvedFrame::Kind;
  Kind kind = Kind::kFrame;
  std::string frame;
};

class FrameScanner {
 public:
  using Clock = std::chrono::steady_clock;

  /// Receive window: the socket reads at least this many bytes at once,
  /// unless the frame cap clips it. 64 KiB is the power of two above a
  /// warm N=600 frame (46.7 KB), so such a frame arrives in one recv.
  static constexpr std::size_t kReceiveWindowBytes = std::size_t{64} << 10;

  /// Writable space at the tail of the buffer for the next receive: the
  /// buffer's free capacity, grown to at least kReceiveWindowBytes, and
  /// clipped so that at most `max_frame_bytes + 1` bytes are ever
  /// pending. Invalidates every view Carve handed out. Call it only
  /// while Oversized(max_frame_bytes) is empty; the window then holds
  /// at least one byte.
  std::span<char> ReceiveWindow(std::size_t max_frame_bytes);

  /// Commits `size` bytes received into the window and stamps the time
  /// of the last byte; call Carve afterwards.
  void Received(std::size_t size);

  /// Copies raw bytes in (no cap) and commits them, as Received would.
  /// Invalidates every view Carve handed out.
  void Feed(const char* data, std::size_t size);

  /// The next complete event in the received bytes, in arrival order, or
  /// nothing once the rest is an incomplete frame (which stays pending).
  std::optional<CarvedFrame> Carve();

  /// Every remaining event, copied out of the buffer.
  std::vector<ScanEvent> Drain();

  /// True while a frame is partially assembled (or a partial line is
  /// buffered) — the idle-eviction and EOF-mid-frame guards key on this.
  [[nodiscard]] bool MidFrame() const { return PendingBytes() > 0; }

  /// The guards, checked once Carve returns nothing; each returns the
  /// error to send. Oversized: the pending bytes exceed
  /// `max_frame_bytes`.
  [[nodiscard]] std::optional<std::string> Oversized(
      std::size_t max_frame_bytes) const;

  /// Mid-frame and silent for over `deadline_seconds` (0: off) at `now`.
  [[nodiscard]] std::optional<std::string> Stalled(double deadline_seconds,
                                                   Clock::time_point now) const;

  /// The peer closed its write side mid-frame.
  [[nodiscard]] std::optional<std::string> TruncatedAtEof() const;

 private:
  // The buffer holds [carved | pending frame | free]. The pending frame
  // is its complete lines, then the partial line; inside a line-by-line
  // carve, a gap [frame_end_, line_) left by stripped '\r's may sit
  // between the two.
  void Reserve(std::size_t free_bytes);
  std::optional<CarvedFrame> CarveEnd();
  std::optional<CarvedFrame> CarveLines();
  // Between Carve calls no gap is open: a line-by-line carve returns at
  // an event, where the gap is empty, or once it has closed the gap.
  [[nodiscard]] std::size_t PendingBytes() const { return size_ - head_; }
  [[nodiscard]] std::size_t PendingLines() const;

  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t head_ = 0;       ///< first byte of the pending frame
  std::size_t scanned_ = 0;    ///< bytes already searched
  bool body_ = false;          ///< the pending frame's first line is in
  bool by_line_ = false;       ///< this window is carved line by line
  std::size_t frame_end_ = 0;  ///< by line: end of the closed-up lines
  std::size_t line_ = 0;       ///< by line: first byte of the next line
  Clock::time_point last_byte_{};
};

/// Consistent-hash routing key of a scanned frame (the lines before its
/// END): WordHash64 of its scenario payload, the key the worker's
/// payload level is indexed by. The header is left out, scheduler=
/// included, so one topology lands on one shard under every scheduler:
/// the tier parses it and builds its engine once, and a repeated
/// (scenario, scheduler) pair finds its response there too. A frame with
/// no header line hashes whole: still deterministic, so the worker that
/// answers the typed parse error is stable too.
std::uint64_t RoutingKey(std::string_view frame);

}  // namespace fadesched::service::shard
