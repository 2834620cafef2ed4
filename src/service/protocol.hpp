// Line-delimited wire protocol for the scheduling service. The payload is
// the `.scenario` corpus format itself, so any checked-in fuzz reproducer
// is directly servable and any served instance can be saved as a corpus
// file.
//
// Request frame (client → server):
//
//   REQUEST id=<token> scheduler=<name> [deadline=<seconds>] check=<16hex>
//   # fadesched scenario v1
//   ...                                  (testing::FormatScenario output)
//   END
//
// Response (server → client), exactly one line per request:
//
//   OK sum=<16hex> id=<token> rate=<%.17g> schedule=<i,j,k|->
//   ERR sum=<16hex> id=<token> status=<shed|timeout|error> kind=<..> msg=<..>
//
// Framing rules: the header names the request; the scenario payload runs
// until a line that is exactly `END` (no scenario line can be `END` — the
// format emits comments, `key = value` pairs, `links:` and CSV rows).
// Parse errors name the 1-based line within the frame; scenario-payload
// errors keep ParseScenario's own line/row numbers, offset-free, prefixed
// with the frame position. Responses are single-line by construction
// (messages have newlines flattened), which is what makes "byte-identical
// response" checkable with a line compare.
//
// Integrity (the chaos layer's corruption defense): `check=` is FNV-1a
// over the whole frame body with the check token itself spliced out
// (header tokens, newline, scenario payload — so a flipped bit in id=,
// scheduler=, deadline=, or any payload byte all mismatch); `sum=` is
// FNV-1a over the response line with its own sum token removed. Both
// tokens must be spelled exactly as written, 16 lowercase hex digits, so
// a corrupted spelling of the same value (case flip, extra leading zero)
// is rejected rather than verified. `check=` is REQUIRED on request
// frames: a missing token on an otherwise well-formed header is itself
// answered as kTransient corruption, because a single flipped separator
// byte can merge the check token into its neighbour — optional
// integrity would be disabled exactly when it is needed (found by the
// chaos soak). `sum=` stays optional on parse for hand-written test
// lines. A mismatch of either throws a kTransient error (wire corruption
// is retryable, not a caller bug). Because a flipped bit can also yield
// a payload that still parses, the request checksum is verified *after*
// a successful scenario parse: parse errors keep their precise row
// diagnostics, and the checksum closes the corrupted-but-parseable hole.
//
// Decode cost: the check= FNV-1a is a serial multiply chain, so it is
// computed during the parse, not as a pass of its own. A link block in
// FormatScenario's exact spelling is read in one pass (net::ParseLinkRows)
// that parses each cell, appends each row to the LinkSet and folds each
// cell's bytes into the running FNV state; the chain then executes in the
// shadow of the next cell's parse. Any other spelling falls back to the
// CsvReader parse and a standalone FNV pass, with the same errors. The
// serving path (SchedulingService::SubmitFrame) probes the cache's
// payload level before any payload FNV and verifies check= only on a
// payload match, before the hit is counted: by one compare when the
// entry's last verified claim had this header state, by one full pass
// otherwise. A payload miss decodes with the one pass above.
// Besides scheduling frames, a connection may send the bare line `STATS`
// (no payload, no END) between frames; the server answers with one
// `STATS sum=<16hex> key=value ...` line — a consistent-enough snapshot
// of the worker's ServiceMetrics counters for monitoring and the
// snapshot-consistency tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/metrics.hpp"
#include "service/request.hpp"

namespace fadesched::service {

/// Terminator line of a request frame.
inline constexpr const char* kFrameEnd = "END";

/// Single-line metrics query, valid only between frames.
inline constexpr const char* kStatsVerb = "STATS";

/// Point-in-time view of a worker's ServiceMetrics, as served by the
/// STATS verb. Counters are monotone; the last two are gauges.
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;           ///< hard queue-full sheds
  std::uint64_t shed_overload = 0;  ///< adaptive controller sheds
  std::uint64_t shed_cold = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t response_hits = 0;    ///< whole-response cache hits
  std::uint64_t response_misses = 0;
  std::uint64_t scenario_hits = 0;    ///< warm-engine cache hits
  std::uint64_t scenario_misses = 0;
  std::uint64_t queue_depth = 0;           ///< gauge
  std::uint64_t queue_delay_ewma_us = 0;   ///< gauge

  /// Total sheds of any flavour (the "shed" term of the admission
  /// identity: submitted == admitted + Sheds() + rejected_draining).
  [[nodiscard]] std::uint64_t Sheds() const { return shed + shed_overload; }

  /// Fraction of completed lookups served from the response cache — the
  /// warm-locality figure the sharded tier's affinity routing maximizes.
  /// 0 when nothing has been looked up yet.
  [[nodiscard]] double WarmHitRate() const {
    const std::uint64_t total = response_hits + response_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(response_hits) /
                            static_cast<double>(total);
  }

  /// The counters as a JSON object — one key per STATS wire field plus
  /// the derived warm_hit_rate. What `fadesched_cli stats` prints, and
  /// what CI parses for its warm-hit-rate floor assertion.
  [[nodiscard]] std::string ToJson() const;
};

/// Accumulates `from` into `into`, counter by counter. Used by the shard
/// router's STATS fan-out: per-shard snapshots sum into one tier-wide
/// line. Gauges sum too (queue_depth is additive across shards;
/// queue_delay_ewma_us becomes a tier total — callers wanting a mean
/// divide by the shard count).
void AccumulateStats(StatsSnapshot& into, const StatsSnapshot& from);

/// Relaxed-load snapshot of the counters this protocol exports.
StatsSnapshot CaptureStats(const ServiceMetrics& metrics);

/// Formats/parses the STATS response line (sum=-protected like every
/// other response). Parse throws util::HarnessError: kTransient on a
/// checksum mismatch, kFatal on structural errors.
std::string FormatStatsLine(const StatsSnapshot& snapshot);
StatsSnapshot ParseStatsLine(const std::string& line);

/// Serializes a request as a full frame (header + scenario + END), ready
/// to write to a socket. Requires a non-empty id without spaces.
std::string FormatRequestFrame(const SchedulingRequest& request);

/// Parses a complete frame (header line through the line before END).
/// Throws util::HarnessError naming the offending 1-based frame line on
/// malformed input: kFatal for structural errors (a caller bug),
/// kTransient for a missing or mismatching check= (wire corruption).
/// Equivalent to ParseRequestBody(ParseRequestHeader(frame)).
SchedulingRequest ParseRequestFrame(std::string_view frame);

/// A request frame's header line, validated. The views point into the
/// frame, which must outlive the header.
struct RequestHeader {
  std::string_view line;       ///< the header line, without its newline
  std::string_view payload;    ///< every frame byte after the header line
  std::string_view id;
  std::string_view scheduler;
  double deadline_seconds = 0.0;
  std::uint64_t check = 0;     ///< the check= value the header claims
  /// The FNV-1a state over the header with its check token spliced out,
  /// then its newline: Fnv1a64(payload, *check_state) is what check=
  /// must equal. Empty when no check= token follows a space or tab, which
  /// ParseRequestBody reports as corruption after the parse.
  std::optional<std::uint64_t> check_state;
};

/// ParseRequestFrame's first half: every check it makes on the header
/// line (keys, id=, scheduler=, deadline=, the check= spelling and its
/// presence), with the same errors in the same order. Also computes
/// check_state, so the header bytes are hashed once per frame.
RequestHeader ParseRequestHeader(std::string_view frame);

/// ParseRequestFrame's second half: parses the payload (kFatal on error),
/// then verifies check= (kTransient on a mismatch). The payload's FNV is
/// folded in during the parse, so the frame is read once.
SchedulingRequest ParseRequestBody(const RequestHeader& header);

/// Formats the single response line (no trailing newline). Deliberately
/// omits cache_hit so hit and miss responses are byte-identical.
std::string FormatResponseLine(const SchedulingResponse& response);

/// The kError line for a failure no request header could be attributed
/// to (a frame that did not parse, a connection-level guard): id "-".
std::string FormatErrorLine(util::ErrorKind kind, const std::string& message);

/// Parses a response line produced by FormatResponseLine. Throws
/// util::HarnessError (kFatal) on malformed input.
SchedulingResponse ParseResponseLine(const std::string& line);

/// The error for a frame cut off before END, naming the `lines` that
/// arrived. FrameAssembler and the front-ends' EOF guard both print it.
std::string TruncatedFrameMessage(std::size_t lines);

/// Line-by-line frame assembler: feed lines as they arrive; Done() flips
/// when the END terminator lands. Reuse via Reset(). No serving path uses
/// it (they carve with shard::FrameScanner); it stays for perfbench's
/// driver, whose source pins this API.
class FrameAssembler {
 public:
  /// Consumes one line (without its newline). Returns true when this line
  /// completed the frame.
  bool Feed(std::string_view line);

  [[nodiscard]] bool Done() const { return done_; }
  [[nodiscard]] bool Empty() const { return lines_ == 0; }

  /// Parses the assembled frame; before Done() it throws the
  /// TruncatedFrameMessage for the lines fed so far.
  [[nodiscard]] SchedulingRequest Parse() const;

  void Reset();

 private:
  std::string frame_;
  std::size_t lines_ = 0;
  bool done_ = false;
};

}  // namespace fadesched::service
