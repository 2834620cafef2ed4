// Seeded load generator for the serve endpoint.
//
// A fixed pool of fuzzer-generated scenarios (pure in the seed) is
// replayed across C concurrent connections, all driven by one thread
// through epoll with at most one outstanding request per connection.
// Pacing is either closed-loop (each connection fires its next request
// the moment the previous response lands) or open-loop (requests are
// released on a fixed global schedule of `rate_per_sec`, which keeps
// offered load constant even when the server slows down — the correct
// way to demonstrate shedding). A released open-loop request that finds
// every connection busy queues client-side, which the corrected
// (intended-start) latency makes visible.
//
// `hot_fraction` carves the request stream into a warm tier (pool
// replays, cache-hot) and a cold tier (scenarios sent once per call, so
// cache misses within the call) so the controller's cold-only shedding
// is observable from the client side: the report carries per-class
// ok/shed counts and p50/95/99.
//
// Because requests use the pool index as their wire id, every OK response
// for pool entry k must be byte-identical across the whole run and across
// connections — the loadgen records the first OK line per entry and counts
// any later divergence in `determinism_mismatches`. CI asserts zero.
#pragma once

#include <cstdint>
#include <string>

namespace fadesched::service {

struct LoadgenOptions {
  /// Endpoint: non-empty unix_socket_path wins, else host:port.
  std::string unix_socket_path;
  std::string host = "127.0.0.1";
  int port = 0;

  std::size_t num_requests = 1000;
  std::size_t connections = 4;

  /// Distinct scenarios replayed round-robin; small pools stress the
  /// cache's hit path, large pools its eviction path.
  std::size_t pool_size = 16;
  /// Links per generated scenario.
  std::size_t links = 40;
  std::uint64_t seed = 1;

  std::string scheduler = "rle";
  /// Per-request queue deadline forwarded on the wire; 0 = server default.
  double deadline_seconds = 0.0;

  /// 0 = closed loop; > 0 = open loop at this many requests/second.
  double rate_per_sec = 0.0;

  /// Fraction of requests drawn from the warm pool (replayed round-robin,
  /// cache-hot after the first pass). The rest are cold scenarios, each
  /// sent exactly once per call, so within one call every one misses the
  /// cache. They are a pure function of (seed, cold ordinal): a second
  /// call with the same options resends the same colds, which a server
  /// that still holds them answers from its cache. The split is
  /// deterministic in the request index (Bresenham spread), independent
  /// of which connection draws the request.
  double hot_fraction = 1.0;

  /// > 0: every `drift_period` requests, one warm-pool entry (round
  /// robin) is replaced by a fresh scenario — a drifting working set, so
  /// affinity routing has to keep absorbing new fingerprints instead of
  /// serving a frozen pool. 0 = static pool.
  std::size_t drift_period = 0;
};

struct LoadgenReport {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t errors = 0;
  std::size_t transport_failures = 0;
  /// OK responses whose bytes differ from the first OK response for the
  /// same pool entry — must be zero for a deterministic server.
  std::size_t determinism_mismatches = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;

  /// Client-observed send→response latency of OK responses, split by
  /// request class. Warm p99 is the overload controller's protected
  /// quantity: under 2× offered load it must stay near uncontended while
  /// the cold tier absorbs the shedding.
  std::size_t warm_ok = 0;
  std::size_t cold_ok = 0;
  std::size_t cold_shed = 0;
  std::size_t warm_shed = 0;
  double warm_p50_ms = 0.0, warm_p95_ms = 0.0, warm_p99_ms = 0.0;
  double cold_p50_ms = 0.0, cold_p95_ms = 0.0, cold_p99_ms = 0.0;

  /// Coordinated-omission-corrected latency: measured from the request's
  /// *intended* release instant on the open-loop schedule (start + i·Δ)
  /// rather than from the actual send. When the server (or a saturated
  /// client connection) slows down, sends lag the schedule and
  /// send-to-reply understates what an arrival actually waited — the
  /// corrected numbers include that client-side lag. In closed-loop runs
  /// intended == actual send, so the two coincide by construction.
  double warm_corrected_p50_ms = 0.0, warm_corrected_p95_ms = 0.0,
         warm_corrected_p99_ms = 0.0;
  double cold_corrected_p50_ms = 0.0, cold_corrected_p95_ms = 0.0,
         cold_corrected_p99_ms = 0.0;

  /// True when every request was answered, none diverged, and no
  /// transport failure occurred (shed/timeout are legitimate outcomes —
  /// they indicate load, not breakage).
  [[nodiscard]] bool Clean() const {
    return determinism_mismatches == 0 && transport_failures == 0 &&
           errors == 0;
  }

  [[nodiscard]] std::string ToJson() const;
};

/// Runs the load; throws util::HarnessError if no connection can be
/// established at all.
LoadgenReport RunLoadgen(const LoadgenOptions& options);

}  // namespace fadesched::service
