#include "service/shard/frame_scanner.hpp"

#include <algorithm>
#include <cstring>

#include "service/protocol.hpp"
#include "service/request.hpp"

namespace fadesched::service::shard {

namespace {

// The terminator line as it sits in LF-only bytes. Its 'E' is the byte
// the one-pass search looks for: rows are numbers and spell their
// exponents 'e', so a frame's candidates are its few upper-case words.
constexpr std::string_view kEndLine = "END\n";

}  // namespace

void FrameScanner::Reserve(std::size_t free_bytes) {
  char* base = buffer_.get();
  // The views handed out so far die here: the pending bytes move to the
  // front, and nothing moves at all when the last carve took everything.
  if (head_ > 0) {
    std::memmove(base, base + head_, size_ - head_);
    size_ -= head_;
    scanned_ -= head_;
    if (by_line_) {
      frame_end_ -= head_;
      line_ -= head_;
    }
    head_ = 0;
  }
  if (capacity_ - size_ < free_bytes) {
    capacity_ = std::max(size_ + free_bytes, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity_);
    if (size_ > 0) std::memcpy(grown.get(), base, size_);
    buffer_ = std::move(grown);
  }
}

std::span<char> FrameScanner::ReceiveWindow(std::size_t max_frame_bytes) {
  Reserve(kReceiveWindowBytes);
  const std::size_t free_bytes = capacity_ - size_;
  // Written so that a cap of SIZE_MAX cannot overflow.
  const std::size_t room = max_frame_bytes - PendingBytes();
  return {buffer_.get() + size_, room < free_bytes ? room + 1 : free_bytes};
}

void FrameScanner::Received(std::size_t size) {
  char* const base = buffer_.get();
  // A window is carved line by line only when it holds a '\r', or when
  // its first byte may end a line the previous window left on a '\r'.
  if (!by_line_ && ((size_ > head_ && base[size_ - 1] == '\r') ||
                    (size > 0 && std::memchr(base + size_, '\r', size)))) {
    // Resume at the start of the line the search stopped in: every line
    // before it is checked and already in place.
    const void* newline = ::memrchr(base + head_, '\n', scanned_ - head_);
    line_ = frame_end_ = scanned_ =
        newline ? static_cast<const char*>(newline) - base + 1 : head_;
    by_line_ = true;
  }
  size_ += size;
  last_byte_ = Clock::now();
}

void FrameScanner::Feed(const char* data, std::size_t size) {
  Reserve(size);
  if (size > 0) std::memcpy(buffer_.get() + size_, data, size);
  Received(size);
}

std::optional<CarvedFrame> FrameScanner::Carve() {
  if (by_line_) return CarveLines();
  // Nothing new to search (nor, before the first receive, a buffer).
  if (scanned_ == size_) return std::nullopt;
  return CarveEnd();
}

std::optional<CarvedFrame> FrameScanner::CarveEnd() {
  char* const base = buffer_.get();
  if (!body_) {
    // The first line alone decides STATS and the empty frame.
    const void* newline =
        std::memchr(base + scanned_, '\n', size_ - scanned_);
    if (newline == nullptr) {
      scanned_ = size_;
      return std::nullopt;
    }
    const std::size_t end = static_cast<const char*>(newline) - base;
    const std::string_view first(base + head_, end - head_);
    scanned_ = end + 1;
    const bool stats = first == kStatsVerb;
    if (stats || first == kFrameEnd) {
      head_ = scanned_;
      return CarvedFrame{
          stats ? CarvedFrame::Kind::kStats : CarvedFrame::Kind::kFrame, {}};
    }
    body_ = true;
  }
  // Past the first line, only an END line ends the frame: an 'E' that
  // starts a line (the first line's '\n' precedes every candidate).
  while (const void* hit =
             std::memchr(base + scanned_, kEndLine[0], size_ - scanned_)) {
    const std::size_t at = static_cast<const char*>(hit) - base;
    if (base[at - 1] == '\n') {
      if (size_ - at < kEndLine.size()) {
        scanned_ = at;  // "E", "EN" or "END" so far: wait for more
        return std::nullopt;
      }
      if (std::string_view(base + at, kEndLine.size()) == kEndLine) {
        const std::string_view frame(base + head_, at - head_);
        head_ = scanned_ = at + kEndLine.size();
        body_ = false;
        return CarvedFrame{CarvedFrame::Kind::kFrame, frame};
      }
    }
    scanned_ = at + 1;
  }
  scanned_ = size_;
  return std::nullopt;
}

std::optional<CarvedFrame> FrameScanner::CarveLines() {
  char* const base = buffer_.get();
  while (const void* newline =
             std::memchr(base + scanned_, '\n', size_ - scanned_)) {
    const std::size_t end = static_cast<const char*>(newline) - base;
    const std::size_t length =
        end - line_ - (end > line_ && base[end - 1] == '\r');
    const std::string_view text(base + line_, length);
    line_ = scanned_ = end + 1;
    // A STATS event's frame is empty: no line is pending before it.
    const bool stats = frame_end_ == head_ && text == kStatsVerb;
    if (stats || text == kFrameEnd) {
      const std::string_view frame(base + head_, frame_end_ - head_);
      head_ = frame_end_ = line_;
      return CarvedFrame{
          stats ? CarvedFrame::Kind::kStats : CarvedFrame::Kind::kFrame,
          frame};
    }
    // Close up behind a stripped '\r'.
    if (text.data() != base + frame_end_) {
      std::memmove(base + frame_end_, text.data(), length);
    }
    base[frame_end_ + length] = '\n';
    frame_end_ += length + 1;
  }
  // Out of lines: the partial line closes up behind the pending ones,
  // and the next window is searched in one pass again.
  if (line_ != frame_end_) {
    std::memmove(base + frame_end_, base + line_, size_ - line_);
    size_ -= line_ - frame_end_;
  }
  scanned_ = frame_end_;
  body_ = frame_end_ > head_;
  by_line_ = false;
  return std::nullopt;
}

std::vector<ScanEvent> FrameScanner::Drain() {
  std::vector<ScanEvent> events;
  while (const std::optional<CarvedFrame> event = Carve()) {
    events.push_back({event->kind, std::string(event->frame)});
  }
  return events;
}

std::size_t FrameScanner::PendingLines() const {
  const char* const base = buffer_.get();
  return static_cast<std::size_t>(
      std::count(base + head_, base + size_, '\n'));
}

std::optional<std::string> FrameScanner::Oversized(
    std::size_t max_frame_bytes) const {
  const std::size_t pending = PendingBytes();
  if (pending <= max_frame_bytes) return std::nullopt;
  return "request frame line " + std::to_string(PendingLines() + 1) +
         ": frame exceeds max_frame_bytes=" + std::to_string(max_frame_bytes) +
         " (" + std::to_string(pending) +
         " bytes buffered) — rejected, connection closed";
}

std::optional<std::string> FrameScanner::Stalled(double deadline_seconds,
                                                 Clock::time_point now) const {
  if (!MidFrame() || deadline_seconds <= 0.0 ||
      std::chrono::duration<double>(now - last_byte_).count() <=
          deadline_seconds) {
    return std::nullopt;
  }
  return "read deadline: frame stalled after " +
         std::to_string(PendingLines()) + " line(s) with no byte for " +
         std::to_string(deadline_seconds) + " s — connection evicted";
}

std::optional<std::string> FrameScanner::TruncatedAtEof() const {
  if (!MidFrame()) return std::nullopt;
  return TruncatedFrameMessage(PendingLines());
}

std::uint64_t RoutingKey(std::string_view frame) {
  // The payload is every byte after the header line, as
  // ParseRequestHeader splits it. No parse: a frame without a newline
  // still routes somewhere deterministic.
  const std::size_t header_end = frame.find('\n');
  return WordHash64(header_end == std::string_view::npos
                        ? frame
                        : frame.substr(header_end + 1));
}

}  // namespace fadesched::service::shard
