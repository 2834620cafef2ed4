// Request/response types of the scheduling service, plus the canonical
// content fingerprint the cache is keyed by.
//
// A request is one `.scenario` instance (links + channel parameters, the
// same format the fuzzer's reproducers use) plus the name of a registered
// scheduler. Its fingerprint is a hash over the *canonical* binary form
// of that content — every double memcpy'd raw, fixed field order,
// provenance stripped — so two requests that mean the same instance
// collide onto one cache entry no matter how their wire bytes were
// formatted. Responses are deterministic: identical request content
// yields a byte-identical schedule whether it was computed or served
// from cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/link_set.hpp"
#include "testing/corpus.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace fadesched::service {

struct SchedulingRequest {
  /// The instance: links + channel parameters (+ free-form description,
  /// which is provenance and explicitly NOT part of the fingerprint).
  fadesched::testing::ScenarioCase scenario;
  /// Registered scheduler name resolved at execution time.
  std::string scheduler = "rle";
  /// Admission deadline in seconds from enqueue; a request that waits
  /// longer is answered with a timeout instead of being executed. 0 = the
  /// batcher's default.
  double deadline_seconds = 0.0;
  /// Wire correlation tag (echoed in the response); not fingerprinted.
  std::string id;
};

/// What happened to a request. kOk carries a schedule; the other three
/// carry an error kind + single-line message. kShed and kTimeout are the
/// admission-control outcomes (queue full / deadline passed); kError is
/// an execution failure classified by the util::error taxonomy.
enum class ResponseStatus { kOk, kShed, kTimeout, kError };

/// Stable lowercase name ("ok", "shed", "timeout", "error").
const char* ResponseStatusName(ResponseStatus status);

struct SchedulingResponse {
  ResponseStatus status = ResponseStatus::kOk;
  /// Error taxonomy kind; meaningful iff status != kOk. Shed maps to
  /// transient (retry later), timeout to timeout, drain to interrupted.
  util::ErrorKind error_kind = util::ErrorKind::kFatal;
  /// Single-line human-readable failure description (empty on kOk).
  std::string message;
  /// Backoff hint on shed responses, derived from the live queue-delay
  /// EWMA (see overload.hpp). 0 = no hint; the wire format omits the
  /// token then, so pre-overload response lines stay byte-identical.
  double retry_after_ms = 0.0;

  net::Schedule schedule;       ///< chosen link ids, ascending
  double claimed_rate = 0.0;    ///< Σ λ over the schedule

  /// Served from the response cache (diagnostics only — deliberately not
  /// part of the wire format, so hit and miss responses stay
  /// byte-identical).
  bool cache_hit = false;
  std::string id;               ///< echoed request correlation tag

  [[nodiscard]] bool Ok() const { return status == ResponseStatus::kOk; }

  /// Process exit code a CLI caller should propagate for this response:
  /// 0 ok, 3 timeout, 1 shed/error (shed is transient — retry later).
  [[nodiscard]] int ExitCode() const;
};

/// The wire checksums' FNV-1a (util/fnv.hpp), under its serving name.
using util::Fnv1a64;

/// 64-bit hash of `bytes` that consumes 32 bytes per step in two
/// independent multiply-fold lanes: 5.7–5.9 µs on a 46,756-byte frame
/// where Fnv1a64 takes 71–73 µs (4-core Xeon, -O2). Chainable via `seed`
/// (a chain differs from hashing the concatenation). Not
/// collision-resistant against an adversary: every index keyed by it
/// compares the bytes before it serves anything.
std::uint64_t WordHash64(std::string_view bytes, std::uint64_t seed = 0);

/// Immutable bytes held by reference: copies share one allocation, so the
/// canonical blob is stored once per scenario however many cache entries
/// key on it. Reads like a const std::string.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(std::string bytes);

  [[nodiscard]] std::size_t size() const { return Str().size(); }
  [[nodiscard]] std::string_view view() const { return Str(); }
  /// Implicit: the blob passes wherever a const std::string& is expected.
  operator const std::string&() const { return Str(); }

  /// Copies of one allocation are equal without reading their bytes.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.bytes_ == b.bytes_ || a.view() == b.view();
  }

 private:
  [[nodiscard]] const std::string& Str() const;

  std::shared_ptr<const std::string> bytes_;
};

/// Canonical content fingerprint of a request. `canonical_scenario` holds
/// the canonical bytes themselves so the cache can reject the (vanishing
/// but nonzero) chance of a 64-bit hash collision by exact comparison
/// instead of serving someone else's schedule.
///
/// The canonical form is a versioned binary serialization — every channel
/// parameter and per-link double memcpy'd raw, fixed field order, the
/// description stripped. Value-identical scenarios produce bit-identical
/// blobs (`.scenario` text stores %.17g, which round-trips doubles
/// exactly, so text-level and binary-level identity coincide). Building
/// the blob and hashing it with WordHash64 costs a few µs at N=600 — far
/// below the text parse it replaces as a cache key.
struct Fingerprint {
  std::uint64_t scenario_hash = 0;  ///< over the canonical blob
  std::uint64_t request_hash = 0;   ///< scenario_hash chained with scheduler
  SharedBytes canonical_scenario;   ///< canonical binary blob (see above)
  std::string scheduler;            ///< scheduler name (response-cache key)
};

/// Canonicalizes and hashes. Deterministic: value-identical scenarios
/// produce identical canonical bytes and hashes; the description and the
/// request id are deliberately excluded.
Fingerprint FingerprintRequest(const SchedulingRequest& request);

/// A fingerprint's request_hash: `scenario_hash` chained with the
/// scheduler name, so one scenario keys a response per scheduler.
std::uint64_t RequestHash(std::uint64_t scenario_hash,
                          std::string_view scheduler);

}  // namespace fadesched::service
