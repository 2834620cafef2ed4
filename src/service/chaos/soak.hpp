// Zero-loss chaos soak: drives a scheduling server through a seeded
// storm of injected socket faults and proves, with an explicit
// per-request ledger, that the service tier loses nothing:
//
//   * every request reaches exactly one terminal outcome (the ledger
//     counts outcomes per slot — 0 means lost, 2 means duplicated);
//   * every OK response is byte-identical to every other OK for the
//     same pool entry (the service determinism contract, checked
//     through corruption — a flipped bit must be caught by the
//     checksums, never served);
//   * retries are bounded (the retrying client's max_attempts), and
//   * a SIGTERM-style drain mid-storm is clean: requests admitted
//     before the drain are answered, requests after it fail fast with
//     typed errors and are counted unserved, not lost.
//
// Determinism: for a fixed seed (and drain_mid_run off), the soak's
// fault trace is byte-identical across runs — workers own a static
// partition of the request sequence (request i belongs to worker
// i mod num_clients), each (worker, connection) fault stream is a pure
// function of the seed, and the trace is sorted by coordinates. CI runs
// the same seed twice and `cmp`s the traces.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "service/chaos/chaos_plan.hpp"
#include "service/chaos/retry_client.hpp"
#include "service/chaos/transport.hpp"
#include "service/client.hpp"
#include "service/shard/shard_server.hpp"

namespace fadesched::service::chaos {

struct ChaosSoakOptions {
  /// Where to soak. An empty endpoint (no unix path, port 0) spins up an
  /// in-process server on a temporary Unix socket — the default, and
  /// required for drain_mid_run.
  Endpoint endpoint;

  std::size_t num_requests = 1000;
  std::size_t num_clients = 4;
  /// Distinct scenario instances cycled through (smaller pool → more
  /// cache hits and more same-content byte-identity checks).
  std::size_t pool_size = 16;
  std::size_t links = 30;
  std::uint64_t seed = 1;
  std::string scheduler = "rle";

  ChaosPlan plan;
  RetryOptions retry;
  ClientOptions client{/*connect*/ 5.0, /*io*/ 5.0};

  /// Halfway through the request sequence, trigger a graceful drain (the
  /// in-process server's Stop(), or `on_drain` when set — the CLI raises
  /// SIGTERM through it to exercise the signal path). Implies
  /// allow_unserved.
  bool drain_mid_run = false;
  /// Count requests that exhausted retries *after* the drain began as
  /// unserved instead of failing the soak — they were refused loudly,
  /// not lost.
  bool allow_unserved = false;
  std::function<void()> on_drain;

  /// In-process server configuration (listener fields are overridden):
  /// plain `serve`'s topology, a ShardServer with the local slot.
  ServerOptions server;

  void Validate() const;
};

struct ChaosSoakReport {
  std::size_t sent = 0;
  std::size_t ok = 0;
  /// Genuine fatal error responses (should be 0 — the pool is valid).
  std::size_t failed_fatal = 0;
  /// Retries exhausted with no drain in progress — a loud loss.
  std::size_t gave_up = 0;
  /// Retries exhausted after the drain began (allow_unserved only).
  std::size_t unserved_after_drain = 0;
  /// Ledger violations: slots with no terminal outcome / more than one.
  std::size_t lost = 0;
  std::size_t duplicated = 0;
  /// OK responses whose line diverged from the first OK for the same
  /// pool entry — corruption that got past every checksum.
  std::size_t corrupted = 0;

  std::size_t retries = 0;  ///< attempts beyond the first, summed
  std::size_t reconnects = 0;
  std::size_t stale_discarded = 0;
  std::size_t corruption_detected = 0;

  std::size_t faults_injected = 0;
  std::array<std::size_t, kNumFaultFamilies> injected_by_family{};
  bool drained = false;  ///< the mid-run drain actually triggered
  double wall_seconds = 0.0;
  /// First non-unserved failure message (empty on a clean soak) — the
  /// one-line diagnosis CI prints before the full report.
  std::string first_failure;

  /// Deterministic formatted fault trace (chaos_plan.hpp).
  std::string trace;

  /// The zero-loss verdict: nothing lost, duplicated, corrupted, failed
  /// fatal, or given up. Unserved-after-drain is allowed — that is what
  /// a clean drain looks like from the outside.
  [[nodiscard]] bool Ok() const {
    return lost == 0 && duplicated == 0 && corrupted == 0 &&
           failed_fatal == 0 && gave_up == 0;
  }

  [[nodiscard]] std::string ToJson() const;
};

ChaosSoakReport RunChaosSoak(const ChaosSoakOptions& options);

/// After a failing soak: re-runs with each enabled fault family disabled
/// in turn, keeping the failure reproducing with as few families as
/// possible. Returns a one-line reproducer ("chaos repro: seed=S
/// requests=N families: recv-kill=0.05") — the artifact CI uploads.
/// Requires an in-process endpoint (each probe needs a fresh server).
std::string ShrinkChaosFailure(const ChaosSoakOptions& options);

}  // namespace fadesched::service::chaos
