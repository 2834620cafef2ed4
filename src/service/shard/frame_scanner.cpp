#include "service/shard/frame_scanner.hpp"

#include <cstring>

#include "service/protocol.hpp"
#include "service/request.hpp"

namespace fadesched::service::shard {

void FrameScanner::Feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  last_byte_ = Clock::now();
}

std::vector<ScanEvent> FrameScanner::Drain() {
  std::vector<ScanEvent> events;
  char* const base = buffer_.data();
  std::size_t frame = 0;          // first byte of the pending frame
  std::size_t line = frame_end_;  // first byte of the next line
  while (const void* newline = std::memchr(base + scanned_, '\n',
                                           buffer_.size() - scanned_)) {
    const std::size_t end = static_cast<const char*>(newline) - base;
    const std::size_t length =
        end - line - (end > line && base[end - 1] == '\r');
    const std::string_view text(base + line, length);
    line = scanned_ = end + 1;
    // A STATS event's frame is empty: no line is pending before it.
    const bool stats = lines_ == 0 && text == kStatsVerb;
    if (stats || text == kFrameEnd) {
      events.push_back(
          {stats ? ScanEvent::Kind::kStats : ScanEvent::Kind::kFrame,
           std::string(base + frame, frame_end_ - frame)});
      frame = frame_end_ = line;
      lines_ = 0;
      continue;
    }
    // Close up behind a stripped '\r'; on LF-only traffic the line is
    // already in place.
    if (text.data() != base + frame_end_) {
      std::memmove(base + frame_end_, text.data(), length);
    }
    base[frame_end_ + length] = '\n';
    frame_end_ += length + 1;
    ++lines_;
  }
  // Keep the pending frame and the partial line contiguous at the front:
  // drop the gap the stripped '\r's left, then the carved events.
  buffer_.erase(frame_end_, line - frame_end_);
  buffer_.erase(0, frame);
  frame_end_ -= frame;
  scanned_ = buffer_.size();
  return events;
}

std::optional<std::string> FrameScanner::Oversized(
    std::size_t max_frame_bytes) const {
  if (buffer_.size() <= max_frame_bytes) return std::nullopt;
  return "request frame line " + std::to_string(lines_ + 1) +
         ": frame exceeds max_frame_bytes=" + std::to_string(max_frame_bytes) +
         " (" + std::to_string(buffer_.size()) +
         " bytes buffered) — rejected, connection closed";
}

std::optional<std::string> FrameScanner::Stalled(double deadline_seconds,
                                                 Clock::time_point now) const {
  if (!MidFrame() || deadline_seconds <= 0.0 ||
      std::chrono::duration<double>(now - last_byte_).count() <=
          deadline_seconds) {
    return std::nullopt;
  }
  return "read deadline: frame stalled after " + std::to_string(lines_) +
         " line(s) with no byte for " + std::to_string(deadline_seconds) +
         " s — connection evicted";
}

std::optional<std::string> FrameScanner::TruncatedAtEof() const {
  if (!MidFrame()) return std::nullopt;
  return TruncatedFrameMessage(lines_);
}

std::uint64_t RoutingKey(std::string_view frame) {
  // The header is the first line and the payload the rest, as
  // ParseRequestHeader splits them for the worker's PayloadKey. No full
  // parse: a malformed header must still route somewhere deterministic.
  const std::string_view header = frame.substr(0, frame.find('\n'));
  constexpr std::string_view kKey = " scheduler=";
  const std::size_t key = header.find(kKey);
  if (header.size() == frame.size() || key == std::string_view::npos) {
    return WordHash64(frame);
  }
  const std::size_t begin = key + kKey.size();
  const std::string_view scheduler =
      header.substr(begin, header.find(' ', begin) - begin);
  return PayloadKey(scheduler, frame.substr(header.size() + 1));
}

}  // namespace fadesched::service::shard
