#include "service/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "testing/corpus.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace fadesched::service {

namespace {

std::string FormatDouble(double value) {
  std::string out;
  util::AppendDoubleG17(out, value);
  return out;
}

std::string FormatHash(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// Only the canonical spelling FormatHash writes is accepted: a flipped
// case bit, an inserted leading zero or a "0x" would otherwise parse to
// the same value and let a corrupted token verify.
std::uint64_t ParseHash(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  if (text.size() != 16 ||
      text.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    throw util::FatalError(std::string("malformed ") + what + " '" +
                           std::string(text) +
                           "' (expected 16 lowercase hex digits)");
  }
  std::from_chars(text.data(), text.data() + text.size(), value, 16);
  return value;
}

double ParseDouble(std::string_view token, const char* what) {
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    throw util::FatalError(std::string("malformed ") + what + " '" + text +
                           "'");
  }
  return value;
}

bool IsToken(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') return false;
  }
  return true;
}

std::string Flatten(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

// The token separators: whitespace as the C locale's isspace defines it.
constexpr std::string_view kBlanks = " \t\n\v\f\r";

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t begin = line.find_first_not_of(kBlanks);
  while (begin != std::string_view::npos) {
    const std::size_t end = std::min(line.find_first_of(kBlanks, begin),
                                     line.size());
    tokens.push_back(line.substr(begin, end - begin));
    begin = line.find_first_not_of(kBlanks, end);
  }
  return tokens;
}

// Splits "key=value"; throws naming the frame line on missing '='.
std::pair<std::string_view, std::string_view> SplitKeyValue(
    std::string_view token, std::size_t frame_line) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw util::FatalError("request frame line " + std::to_string(frame_line) +
                           ": expected key=value, got '" + std::string(token) +
                           "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

ResponseStatus ParseStatusName(std::string_view name) {
  if (name == "shed") return ResponseStatus::kShed;
  if (name == "timeout") return ResponseStatus::kTimeout;
  if (name == "error") return ResponseStatus::kError;
  throw util::FatalError("malformed response status '" + std::string(name) +
                         "'");
}

util::ErrorKind ParseKindName(std::string_view name) {
  if (name == "transient") return util::ErrorKind::kTransient;
  if (name == "timeout") return util::ErrorKind::kTimeout;
  if (name == "interrupted") return util::ErrorKind::kInterrupted;
  if (name == "fatal") return util::ErrorKind::kFatal;
  throw util::FatalError("malformed error kind '" + std::string(name) + "'");
}

}  // namespace

std::string FormatRequestFrame(const SchedulingRequest& request) {
  if (!IsToken(request.id)) {
    throw util::FatalError("request id must be a non-empty token without "
                           "whitespace, got '" + request.id + "'");
  }
  if (!IsToken(request.scheduler)) {
    throw util::FatalError("scheduler name must be a non-empty token without "
                           "whitespace, got '" + request.scheduler + "'");
  }
  std::string header = "REQUEST id=" + request.id +
                       " scheduler=" + request.scheduler;
  if (request.deadline_seconds > 0.0) {
    header += " deadline=" + FormatDouble(request.deadline_seconds);
  }
  // Newline-terminated by construction.
  const std::string scenario =
      fadesched::testing::FormatScenario(request.scenario);
  // check= covers the whole frame body (header without the check token
  // itself, newline, payload) so a flipped bit anywhere — id, scheduler,
  // deadline, or scenario — is detected as wire corruption. Chained, so
  // the body is never concatenated just to be hashed.
  const std::uint64_t check =
      Fnv1a64(scenario, Fnv1a64("\n", Fnv1a64(header)));
  std::string frame = header + " check=" + FormatHash(check) + '\n';
  frame.reserve(frame.size() + scenario.size() + 4);
  frame += scenario;
  frame += kFrameEnd;
  frame += '\n';
  return frame;
}

namespace {

// Where the check token sits in the header: [begin, end) covers the token
// and the one separator before it, the bytes the body hash splices out.
struct CheckSplice {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// The token is located by any whitespace boundary, not just ' ': a space
// corrupted into a tab still tokenizes, and must not silently disable
// verification. Empty when no "check=" follows a space or tab.
std::optional<CheckSplice> LocateCheckToken(std::string_view line) {
  std::size_t pos = 0;
  for (;;) {
    pos = line.find("check=", pos);
    if (pos == std::string_view::npos || pos == 0) return std::nullopt;
    const char before = line[pos - 1];
    if (before == ' ' || before == '\t') break;
    ++pos;
  }
  // The token ends where the tokenizer ended it, so a stray '\r' or '\v'
  // after it is hashed rather than spliced away.
  return CheckSplice{pos - 1,
                     std::min(line.find_first_of(kBlanks, pos), line.size())};
}

// The body is the frame with the check token spliced out, mirroring the
// format side. This is the FNV state after the header pieces and their
// newline; the payload is chained on from it.
std::uint64_t HeaderCheck(std::string_view line, const CheckSplice& at) {
  return Fnv1a64("\n", Fnv1a64(line.substr(at.end),
                               Fnv1a64(line.substr(0, at.begin))));
}

}  // namespace

RequestHeader ParseRequestHeader(std::string_view frame) {
  const std::size_t header_end = frame.find('\n');
  if (header_end == std::string_view::npos) {
    throw util::FatalError(
        "request frame line 1: header is not newline-terminated");
  }
  RequestHeader header;
  header.line = frame.substr(0, header_end);
  header.payload = frame.substr(header_end + 1);
  const std::vector<std::string_view> tokens = SplitTokens(header.line);
  if (tokens.empty() || tokens[0] != "REQUEST") {
    throw util::FatalError(
        "request frame line 1: expected 'REQUEST id=... scheduler=...', got '" +
        std::string(header.line) + "'");
  }

  std::optional<std::uint64_t> check;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [key, value] = SplitKeyValue(tokens[t], 1);
    if (key == "id") {
      header.id = value;
    } else if (key == "scheduler") {
      header.scheduler = value;
    } else if (key == "deadline") {
      try {
        header.deadline_seconds = ParseDouble(value, "deadline");
      } catch (const util::HarnessError& e) {
        // Prefixed so the retry client's corruption heuristic (fatal
        // errors naming the frame on a frame *we* formatted correctly)
        // covers a garbled deadline token too.
        throw util::FatalError(std::string("request frame line 1: ") +
                               e.what());
      }
      if (header.deadline_seconds < 0.0) {
        throw util::FatalError(
            "request frame line 1: deadline must be non-negative");
      }
      if (!std::isfinite(header.deadline_seconds)) {
        throw util::FatalError(
            "request frame line 1: deadline must be finite");
      }
    } else if (key == "check") {
      try {
        check = ParseHash(value, "check");
      } catch (const util::HarnessError& e) {
        throw util::FatalError(std::string("request frame line 1: ") +
                               e.what());
      }
    } else {
      throw util::FatalError("request frame line 1: unknown header key '" +
                             std::string(key) + "'");
    }
  }
  if (header.id.empty()) {
    throw util::FatalError("request frame line 1: missing id=");
  }
  if (header.scheduler.empty()) {
    throw util::FatalError("request frame line 1: missing scheduler=");
  }
  if (!check.has_value()) {
    // Mandatory, and deliberately transient: every in-repo client sends
    // check=, so its absence on an otherwise well-formed frame is the
    // signature of a corrupted separator — a flipped space merges the
    // check token into its neighbour, which would otherwise disable
    // verification exactly when it is needed (found by the chaos soak).
    throw util::TransientError(
        "request frame line 1: missing check= integrity token (wire "
        "corruption, or a pre-checksum peer — retry with check=)");
  }
  header.check = *check;
  if (const std::optional<CheckSplice> at = LocateCheckToken(header.line)) {
    header.check_state = HeaderCheck(header.line, *at);
  }
  return header;
}

SchedulingRequest ParseRequestBody(const RequestHeader& header,
                                   bool check_matched) {
  SchedulingRequest request;
  request.id = header.id;
  request.scheduler = header.scheduler;
  request.deadline_seconds = header.deadline_seconds;
  // The payload's FNV is chained on during the parse (one pass over the
  // link block when it is in FormatScenario's spelling), so a frame pays
  // for the check once.
  const bool hashed = !check_matched && header.check_state.has_value();
  std::uint64_t hash = hashed ? *header.check_state : 0;
  try {
    request.scenario = fadesched::testing::ParseScenario(
        header.payload, hashed ? &hash : nullptr);
  } catch (const std::exception& e) {
    // ParseScenario's message already names its own 1-based line/row; the
    // payload starts at frame line 2.
    throw util::FatalError(
        std::string("request frame scenario payload (frame line 2 onward): ") +
        e.what());
  }
  if (check_matched) return request;
  // Verified after the parse on purpose: a corrupted payload that fails
  // to parse keeps its precise row diagnostic; one that still parses —
  // or a flipped header token that still splits as key=value — is caught
  // here instead of silently scheduling the wrong instance.
  if (!hashed) {
    // A check= token that follows a separator other than space or tab.
    throw util::TransientError(
        "request frame line 1: check= token lost during reparse (wire "
        "corruption — retry)");
  }
  if (header.check != hash) {
    // Located again only here, to name the hashed byte count.
    const CheckSplice at = *LocateCheckToken(header.line);
    const std::size_t body_bytes = at.begin + (header.line.size() - at.end) +
                                   1 + header.payload.size();
    throw util::TransientError(
        "request frame checksum mismatch: " + std::to_string(body_bytes) +
        " frame byte(s) hash to " + FormatHash(hash) +
        ", header claims check=" + FormatHash(header.check) +
        " (wire corruption — retry)");
  }
  return request;
}

SchedulingRequest ParseRequestFrame(std::string_view frame) {
  return ParseRequestBody(ParseRequestHeader(frame));
}

namespace {

// `sum=` is spliced in right after the status word so it never collides
// with msg=, which runs to end of line. The checksum covers the line
// with the sum token removed, so verification is splice-inverse.
std::string SpliceChecksum(const std::string& body) {
  const std::size_t space = body.find(' ');
  return body.substr(0, space) + " sum=" + FormatHash(Fnv1a64(body)) +
         body.substr(space);
}

// Returns the line with a leading sum token stripped, after verifying it.
// Lines without one (hand-written tests, pre-checksum peers) pass through.
std::string VerifyAndStripChecksum(const std::string& line) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos || line.compare(space, 5, " sum=") != 0) {
    return line;
  }
  std::size_t value_end = line.find(' ', space + 5);
  if (value_end == std::string::npos) value_end = line.size();
  const std::uint64_t claimed =
      ParseHash(line.substr(space + 5, value_end - (space + 5)), "sum");
  const std::string body = line.substr(0, space) + line.substr(value_end);
  if (Fnv1a64(body) != claimed) {
    throw util::TransientError(
        "response checksum mismatch: line hashes to " +
        FormatHash(Fnv1a64(body)) + ", carries sum=" + FormatHash(claimed) +
        " (wire corruption — retry)");
  }
  return body;
}

}  // namespace

std::string FormatResponseLine(const SchedulingResponse& response) {
  if (response.Ok()) {
    std::string line = "OK id=" + response.id +
                       " rate=" + FormatDouble(response.claimed_rate) +
                       " schedule=";
    if (response.schedule.empty()) {
      line += '-';
    } else {
      for (std::size_t i = 0; i < response.schedule.size(); ++i) {
        if (i > 0) line += ',';
        line += std::to_string(response.schedule[i]);
      }
    }
    return SpliceChecksum(line);
  }
  std::string line = "ERR id=" + response.id +
                     " status=" + ResponseStatusName(response.status) +
                     " kind=" + util::ErrorKindName(response.error_kind);
  // Before msg= on purpose: msg= runs to end of line, so any token after
  // it would be swallowed into the message.
  if (response.retry_after_ms > 0.0) {
    line += " retry_after_ms=" + FormatDouble(response.retry_after_ms);
  }
  return SpliceChecksum(line + " msg=" + Flatten(response.message));
}

std::string FormatErrorLine(util::ErrorKind kind, const std::string& message) {
  SchedulingResponse response;
  response.status = ResponseStatus::kError;
  response.error_kind = kind;
  response.message = message;
  response.id = "-";
  return FormatResponseLine(response);
}

SchedulingResponse ParseResponseLine(const std::string& raw_line) {
  const std::string line = VerifyAndStripChecksum(raw_line);
  SchedulingResponse response;
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty()) throw util::FatalError("empty response line");

  if (tokens[0] == "OK") {
    response.status = ResponseStatus::kOk;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const auto [key, value] = SplitKeyValue(tokens[t], 1);
      if (key == "id") {
        response.id = value;
      } else if (key == "rate") {
        response.claimed_rate = ParseDouble(value, "rate");
      } else if (key == "schedule") {
        if (value != "-") {
          std::istringstream ids{std::string(value)};
          std::string piece;
          while (std::getline(ids, piece, ',')) {
            response.schedule.push_back(
                static_cast<net::LinkId>(std::stoull(piece)));
          }
        }
      } else {
        throw util::FatalError("unknown response key '" + std::string(key) +
                               "'");
      }
    }
    return response;
  }

  if (tokens[0] == "ERR") {
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const auto [key, value] = SplitKeyValue(tokens[t], 1);
      if (key == "id") {
        response.id = value;
      } else if (key == "status") {
        response.status = ParseStatusName(value);
      } else if (key == "kind") {
        response.error_kind = ParseKindName(value);
      } else if (key == "retry_after_ms") {
        response.retry_after_ms = ParseDouble(value, "retry_after_ms");
        if (response.retry_after_ms < 0.0) {
          throw util::FatalError("retry_after_ms must be non-negative, got '" +
                                 std::string(value) + "'");
        }
      } else if (key == "msg") {
        // msg= runs to end of line (it may contain spaces).
        const std::size_t pos = line.find(" msg=");
        response.message = pos == std::string::npos ? std::string(value)
                                                    : line.substr(pos + 5);
        break;
      } else {
        throw util::FatalError("unknown response key '" + std::string(key) +
                               "'");
      }
    }
    if (response.status == ResponseStatus::kOk) {
      throw util::FatalError("ERR response line missing status=: '" + line +
                             "'");
    }
    return response;
  }

  throw util::FatalError("response line must start with OK or ERR, got '" +
                         line + "'");
}

StatsSnapshot CaptureStats(const ServiceMetrics& metrics) {
  const auto get = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  StatsSnapshot s;
  s.submitted = get(metrics.submitted);
  s.admitted = get(metrics.admitted);
  s.completed = get(metrics.completed);
  s.failed = get(metrics.failed);
  s.timed_out = get(metrics.timed_out);
  s.shed = get(metrics.shed);
  s.shed_overload = get(metrics.shed_overload);
  s.shed_cold = get(metrics.shed_cold);
  s.rejected_draining = get(metrics.rejected_draining);
  s.worker_restarts = get(metrics.worker_restarts);
  s.response_hits = get(metrics.response_hits);
  s.response_misses = get(metrics.response_misses);
  s.scenario_hits = get(metrics.scenario_hits);
  s.scenario_misses = get(metrics.scenario_misses);
  s.queue_depth = get(metrics.queue_depth);
  s.queue_delay_ewma_us = get(metrics.queue_delay_ewma_us);
  return s;
}

void AccumulateStats(StatsSnapshot& into, const StatsSnapshot& from) {
  into.submitted += from.submitted;
  into.admitted += from.admitted;
  into.completed += from.completed;
  into.failed += from.failed;
  into.timed_out += from.timed_out;
  into.shed += from.shed;
  into.shed_overload += from.shed_overload;
  into.shed_cold += from.shed_cold;
  into.rejected_draining += from.rejected_draining;
  into.worker_restarts += from.worker_restarts;
  into.response_hits += from.response_hits;
  into.response_misses += from.response_misses;
  into.scenario_hits += from.scenario_hits;
  into.scenario_misses += from.scenario_misses;
  into.queue_depth += from.queue_depth;
  into.queue_delay_ewma_us += from.queue_delay_ewma_us;
}

namespace {

// Field table driving both the format and the parse, so the two cannot
// drift. Order is the wire order.
struct StatsField {
  const char* key;
  std::uint64_t StatsSnapshot::* member;
};

constexpr StatsField kStatsFields[] = {
    {"submitted", &StatsSnapshot::submitted},
    {"admitted", &StatsSnapshot::admitted},
    {"completed", &StatsSnapshot::completed},
    {"failed", &StatsSnapshot::failed},
    {"timed_out", &StatsSnapshot::timed_out},
    {"shed", &StatsSnapshot::shed},
    {"shed_overload", &StatsSnapshot::shed_overload},
    {"shed_cold", &StatsSnapshot::shed_cold},
    {"rejected_draining", &StatsSnapshot::rejected_draining},
    {"worker_restarts", &StatsSnapshot::worker_restarts},
    {"response_hits", &StatsSnapshot::response_hits},
    {"response_misses", &StatsSnapshot::response_misses},
    {"scenario_hits", &StatsSnapshot::scenario_hits},
    {"scenario_misses", &StatsSnapshot::scenario_misses},
    {"queue_depth", &StatsSnapshot::queue_depth},
    {"queue_delay_ewma_us", &StatsSnapshot::queue_delay_ewma_us},
};

std::uint64_t ParseCounter(std::string_view token, const char* what) {
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno != 0) {
    throw util::FatalError(std::string("malformed STATS counter ") + what +
                           "='" + text + "'");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::string FormatStatsLine(const StatsSnapshot& snapshot) {
  std::string line = kStatsVerb;
  for (const StatsField& field : kStatsFields) {
    line += ' ';
    line += field.key;
    line += '=';
    line += std::to_string(snapshot.*(field.member));
  }
  return SpliceChecksum(line);
}

StatsSnapshot ParseStatsLine(const std::string& raw_line) {
  const std::string line = VerifyAndStripChecksum(raw_line);
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != kStatsVerb) {
    throw util::FatalError("expected a STATS response line, got '" + line +
                           "'");
  }
  StatsSnapshot snapshot;
  bool seen[std::size(kStatsFields)] = {};
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [key, value] = SplitKeyValue(tokens[t], 1);
    // Unknown keys are skipped, so a client reads the stats lines of
    // workers built with more (or since-retired) fields.
    for (std::size_t f = 0; f < std::size(kStatsFields); ++f) {
      if (key == kStatsFields[f].key) {
        snapshot.*(kStatsFields[f].member) =
            ParseCounter(value, kStatsFields[f].key);
        seen[f] = true;
        break;
      }
    }
  }
  for (std::size_t f = 0; f < std::size(kStatsFields); ++f) {
    if (!seen[f]) {
      throw util::FatalError(std::string("STATS line missing ") +
                             kStatsFields[f].key + "=");
    }
  }
  return snapshot;
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{\n";
  for (const StatsField& field : kStatsFields) {
    out += "  \"";
    out += field.key;
    out += "\": ";
    out += std::to_string(this->*(field.member));
    out += ",\n";
  }
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.6f", WarmHitRate());
  out += std::string("  \"warm_hit_rate\": ") + rate + "\n}\n";
  return out;
}

bool FrameAssembler::Feed(std::string_view line) {
  if (done_) Reset();
  ++lines_;
  if (line == kFrameEnd) {
    done_ = true;
    return true;
  }
  frame_ += line;
  frame_ += '\n';
  return false;
}

SchedulingRequest FrameAssembler::Parse() const {
  if (!done_) throw util::FatalError(TruncatedFrameMessage(lines_));
  return ParseRequestFrame(frame_);
}

std::string TruncatedFrameMessage(std::size_t lines) {
  return "truncated request frame after " + std::to_string(lines) +
         " line(s) — missing END terminator";
}

void FrameAssembler::Reset() {
  frame_.clear();
  lines_ = 0;
  done_ = false;
}

}  // namespace fadesched::service
