// Per-connection incremental frame reassembly, shared by both
// front-ends: the epoll router and the thread-per-connection Server.
//
// Both get arbitrary byte chunks from the socket and must carve frames
// out of them; FrameScanner is that state machine: feed bytes, drain
// events. One carving routine for both keeps their framing
// byte-identical, which the chaos suite asserts:
//
//   * lines end at '\n'; a trailing '\r' is stripped (telnet-friendly);
//   * a bare STATS line between frames is a metrics query, the same
//     bytes inside a frame are scenario payload;
//   * a frame runs from its header line through the END terminator;
//   * the max-frame guard counts assembled bytes plus unscanned buffer.
//
// The scanner does NOT parse or validate frames — routing must not
// depend on validity (a corrupt frame still routes to one worker, whose
// ParseRequestFrame answers with the typed error; the router stays dumb
// and all protocol policy lives in exactly one place).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"

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
  /// Appends raw bytes from the socket; call Drain() afterwards.
  void Feed(const char* data, std::size_t size);

  /// Carves complete events out of the buffered bytes. Returns the
  /// events in arrival order; an incomplete trailing frame stays pending.
  std::vector<ScanEvent> Drain();

  /// True while a frame is partially assembled (or a partial line is
  /// buffered) — the idle-eviction and EOF-mid-frame guards key on this.
  [[nodiscard]] bool MidFrame() const {
    return !assembler_.Empty() || !buffer_.empty();
  }

  /// Lines fed into the pending frame (named in guard errors).
  [[nodiscard]] std::size_t Lines() const { return assembler_.Lines(); }

  /// Assembled + unscanned bytes, the quantity the max-frame guard caps.
  [[nodiscard]] std::size_t PendingBytes() const {
    return assembler_.ByteSize() + buffer_.size();
  }

  /// Truncation error message for EOF mid-frame (FrameAssembler's).
  [[nodiscard]] std::string Truncated() const { return assembler_.Truncated(); }

 private:
  std::string buffer_;       ///< bytes not yet split into lines
  FrameAssembler assembler_;
};

/// Consistent-hash routing key of a raw request frame: PayloadKey of the
/// scheduler= header token and the scenario payload. The id=,
/// deadline= and check= tokens are deliberately excluded so repeat
/// requests for the same (scenario, scheduler) pair land on the same
/// shard — affinity is what turns N per-process caches into one warm
/// tier. Malformed headers hash the whole frame: still deterministic, so
/// the worker that answers the typed parse error is stable too.
std::uint64_t RoutingKey(const std::string& frame);

}  // namespace fadesched::service::shard
