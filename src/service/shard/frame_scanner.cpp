#include "service/shard/frame_scanner.hpp"

#include "service/request.hpp"

namespace fadesched::service::shard {

void FrameScanner::Feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::vector<ScanEvent> FrameScanner::Drain() {
  std::vector<ScanEvent> events;
  // A cursor walks the complete lines in place; the consumed prefix is
  // dropped once at the end, and a trailing partial line stays buffered.
  std::size_t begin = 0;
  for (std::size_t end; (end = buffer_.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    std::string_view line(buffer_.data() + begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (assembler_.Empty() && line == kStatsVerb) {
      events.push_back({ScanEvent::Kind::kStats, {}});
      continue;
    }
    if (!assembler_.Feed(line)) continue;
    events.push_back({ScanEvent::Kind::kFrame, assembler_.Body()});
    assembler_.Reset();
  }
  buffer_.erase(0, begin);
  return events;
}

std::uint64_t RoutingKey(const std::string& frame) {
  // Header is the first line; payload is everything after it (including
  // the END terminator — constant across frames, so harmless to hash).
  const std::size_t header_end = frame.find('\n');
  if (header_end == std::string::npos) return WordHash64(frame);
  const std::string_view header(frame.data(), header_end);
  const std::string_view payload(frame.data() + header_end + 1,
                                 frame.size() - header_end - 1);
  // Extract the scheduler= token value from the header by scanning
  // space-separated tokens; no full parse — a malformed header must
  // still route somewhere deterministic.
  std::string_view scheduler;
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t end = header.find(' ', pos);
    if (end == std::string_view::npos) end = header.size();
    const std::string_view token = header.substr(pos, end - pos);
    constexpr std::string_view kKey = "scheduler=";
    if (token.size() > kKey.size() && token.substr(0, kKey.size()) == kKey) {
      scheduler = token.substr(kKey.size());
      break;
    }
    pos = end + 1;
  }
  if (scheduler.empty()) return WordHash64(frame);
  return PayloadKey(scheduler, payload);
}

}  // namespace fadesched::service::shard
