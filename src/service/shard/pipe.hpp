// Length-prefixed message framing for the router ↔ shard-worker
// socketpair. The client-facing wire stays the line protocol; inside the
// tier, frames ride a binary envelope so the router never has to re-scan
// worker output for line boundaries and a ticket id travels with every
// message (responses can complete out of order across shards while each
// client connection still receives its replies in request order — the
// router re-sequences by ticket).
//
// Envelope: 20-byte little-endian header {magic u32, kind u32, ticket
// u64, length u32} followed by `length` payload bytes.
//
//   kRequest     router → worker   payload = raw request frame (verbatim
//                                  client bytes, checksum intact)
//   kResponse    worker → router   payload = response line (no newline)
//   kStatsQuery  router → worker   payload empty
//   kStatsReply  worker → router   payload = FormatStatsLine() output
//
// A bad magic or an oversized length is a kFatal protocol error: the
// socketpair is a trusted in-machine transport, so corruption here means
// a worker bug (or a worker that died mid-write and left a torn header);
// the router treats it as a worker failure, not a retryable wire fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fadesched::service::shard {

enum class PipeMsgKind : std::uint32_t {
  kRequest = 1,
  kResponse = 2,
  kStatsQuery = 3,
  kStatsReply = 4,
};

struct PipeMsg {
  PipeMsgKind kind = PipeMsgKind::kRequest;
  std::uint64_t ticket = 0;
  std::string payload;
};

inline constexpr std::uint32_t kPipeMagic = 0x46534850;  // "FSHP"
inline constexpr std::size_t kPipeHeaderBytes = 20;

/// Upper bound on a single pipe payload. Larger than the server's
/// max_frame_bytes default (1 MiB) so any admissible client frame fits;
/// far below anything a healthy worker emits, so a torn/garbage header
/// trips it immediately.
inline constexpr std::uint32_t kMaxPipePayloadBytes = 16u << 20;

/// Serializes a message onto the end of `out` (header + payload), with
/// no copy of the payload on the way.
void AppendPipeMsg(std::string& out, PipeMsgKind kind, std::uint64_t ticket,
                   std::string_view payload);

/// Serializes `msg` onto the end of `out` (header + payload).
void AppendPipeMsg(std::string& out, const PipeMsg& msg);

/// Incremental decoder: feed raw bytes as they arrive from the
/// socketpair, pop complete messages. Throws util::FatalError on a bad
/// magic or an oversized length (trusted-transport contract above).
class PipeDecoder {
 public:
  void Feed(const char* data, std::size_t size);

  /// Next complete message, or nullopt if more bytes are needed.
  std::optional<PipeMsg> Pop();

  /// True when a partial header/payload is pending — EOF here means the
  /// peer died mid-write.
  [[nodiscard]] bool MidMessage() const { return !buffer_.empty(); }

  [[nodiscard]] std::size_t BufferedBytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

}  // namespace fadesched::service::shard
