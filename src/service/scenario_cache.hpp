// Bounded-memory LRU cache of scheduling state, keyed by the canonical
// content fingerprint.
//
// Three levels share one byte budget and one recency list:
//
//   * scenario entries — the parsed LinkSet plus a built
//     channel::InterferenceEngine, so a repeated or perturbed-then-
//     repeated topology skips the O(N) table build. Entries are handed
//     out as shared_ptr<const ...>, so eviction can never invalidate an
//     engine a worker is scheduling against.
//   * response entries — the completed SchedulingResponse for
//     (scenario, scheduler), so an identical repeat request skips
//     scheduling entirely.
//   * payload entries — the exact `.scenario` bytes of a request frame,
//     mapped to their fingerprint's scenario_hash and canonical blob. A
//     later frame with a byte-identical payload, under any scheduler,
//     gets its fingerprint from LookupPayload without a parse or a
//     fingerprint pass. An entry is created (AttachPayload) only for a
//     parsed frame whose fingerprint is already resident, so one-shot
//     frames copy nothing.
//
// A payload hit still verifies the frame's check=. Each entry remembers
// the last claim a full pass over its bytes verified: a claim with that
// header state is decided by one compare; any other takes one full pass,
// and only a pass that matched replaces the memo. Every sender repeats
// one header per payload, so each payload pays one pass.
//
// Hash collisions are rejected, not served: every entry stores the bytes
// it was keyed by (canonical blob, scheduler name, payload) and a lookup
// compares them before declaring a hit (a 64-bit content hash makes
// collisions vanishingly rare; comparing makes serving a wrong schedule
// impossible). The canonical blob is held once per scenario: the
// fingerprint and the entries of every level share it, and blobs of one
// allocation compare equal without reading their bytes.
//
// All operations are thread-safe behind one mutex; engine builds and
// full check= passes happen OUTSIDE the lock so a large miss cannot stall
// concurrent hits. Two threads missing on the same key may both build —
// the first insert wins, which is harmless because engine construction
// is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "channel/batch_interference.hpp"
#include "channel/params.hpp"
#include "net/link_set.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace fadesched::service {

struct CacheOptions {
  /// Total budget across scenario, response and payload entries.
  /// Inserting an over-budget entry evicts from the LRU tail first; a
  /// single entry larger than the whole budget is still admitted (and
  /// evicted as soon as anything newer lands) so a giant scenario cannot
  /// wedge the service.
  std::size_t capacity_bytes = 256ull << 20;

  /// Backend configuration for memoized engines. `shared` must be empty;
  /// the cache is the thing that fills it in.
  channel::EngineOptions engine;
};

/// A request frame's payload as the payload level keys it. The view
/// points into the frame and is only read during the call that receives
/// it.
struct RawPayload {
  std::uint64_t key = 0;  ///< WordHash64(payload): shard::RoutingKey's key
  std::string_view payload;
};

/// A frame's check= claim as the payload level verifies it: the header's
/// FNV state (RequestHeader::check_state) and the value check= names. The
/// claim holds when Fnv1a64(payload, state) == expected.
struct RawCheck {
  std::uint64_t state = 0;
  std::uint64_t expected = 0;
};

class ScenarioCache {
 public:
  /// Memoized per-scenario state. Immutable after construction; the
  /// engine's internal LinkSet pointer targets `links`, which lives and
  /// dies with the entry.
  struct Scenario {
    net::LinkSet links;
    channel::ChannelParams params;
    SharedBytes canonical_scenario;
    std::optional<channel::InterferenceEngine> engine;
    std::size_t cost_bytes = 0;
  };
  using ScenarioPtr = std::shared_ptr<const Scenario>;

  /// `metrics` may be null (the cache then keeps no counters).
  explicit ScenarioCache(CacheOptions options = {},
                         ServiceMetrics* metrics = nullptr);

  /// Returns the memoized state for `fp`, inserting on miss: `pinned`
  /// when given (a resident entry evicted since PeekScenario handed it
  /// out, counted as a hit), else built (links copied out of
  /// `request.scenario`, engine constructed). Sets *hit accordingly when
  /// non-null.
  ScenarioPtr ObtainScenario(const Fingerprint& fp,
                             const SchedulingRequest& request,
                             bool* hit = nullptr, ScenarioPtr pinned = nullptr);

  /// True when serving `fp` would be cheap: its response or its built
  /// scenario is resident. A pure peek — no LRU touch, no counters — so
  /// admission-time classification cannot perturb eviction order or the
  /// hit-rate metrics.
  [[nodiscard]] bool IsWarm(const Fingerprint& fp) const;

  /// The resident scenario entry for `fp`, or null. A pure peek, like
  /// IsWarm; ObtainScenario then touches and counts it.
  [[nodiscard]] ScenarioPtr PeekScenario(const Fingerprint& fp) const;

  /// Response memoization. Lookup copies the stored response into *out
  /// (id/cache_hit fields left for the caller to stamp). Store ignores
  /// non-kOk responses — admission failures must not be replayed.
  /// `count_miss=false` is for pre-handler probes (the Submit fast path):
  /// a probe that misses hands the request to HandleNow, whose own lookup
  /// is the authoritative miss — counting both would double every cold
  /// request in the warm-hit-rate denominator.
  bool LookupResponse(const Fingerprint& fp, SchedulingResponse* out,
                      bool count_miss = true);
  void StoreResponse(const Fingerprint& fp, const SchedulingResponse& response);

  /// The payload level: the fingerprint, under `scheduler`, of the
  /// resident payload equal to `raw.payload` byte for byte, once `check`
  /// holds for it. The claim is decided by one compare when check.state
  /// is the state of the entry's verified claim, otherwise by one full
  /// FNV pass outside the lock (bumping raw_check_passes) that becomes
  /// the verified claim if it matched. A failed claim, or an entry
  /// evicted during the pass, misses; a miss touches and counts nothing.
  /// The fingerprint shares the entry's blob; its scenario or response
  /// may no longer be resident.
  std::optional<Fingerprint> LookupPayload(const RawPayload& raw,
                                           std::string_view scheduler,
                                           RawCheck check);

  /// Maps `raw.payload` to `fp` when `fp` is resident at the response or
  /// the scenario level and the payload is not yet resident: a new
  /// payload entry, charged its bytes and its blob. Otherwise does
  /// nothing.
  void AttachPayload(const RawPayload& raw, const Fingerprint& fp);

  [[nodiscard]] std::size_t CurrentBytes() const;
  [[nodiscard]] std::size_t NumEntries() const;

  /// Drops everything (tests; administrative reset).
  void Clear();

  /// Cost model used for the byte budget, exposed for tests. Every
  /// backend holds O(N) tables, so `engine` does not change the estimate.
  static std::size_t EstimateScenarioBytes(const Scenario& scenario,
                                           const channel::EngineOptions& engine);

 private:
  /// A payload entry's bytes and what a lookup derives from them.
  struct Payload {
    std::string bytes;
    std::uint64_t scenario_hash = 0;
    std::uint64_t serial = 0;  ///< distinct for every payload entry
    /// The last claim a full pass matched: Fnv1a64(bytes, state) ==
    /// expected.
    std::optional<RawCheck> verified;
  };

  // One LRU node covers any level; exactly one of scenario, response and
  // payload is set. The exact-match key is `blob` at the scenario level,
  // (`scheduler`, `blob`) at the response level and `payload->bytes` at
  // the payload level.
  struct Node {
    std::uint64_t hash = 0;
    SharedBytes blob;
    std::string scheduler;
    ScenarioPtr scenario;
    std::optional<SchedulingResponse> response;
    std::unique_ptr<Payload> payload;
    std::size_t cost_bytes = 0;
  };
  using LruList = std::list<Node>;
  using Index = std::unordered_multimap<std::uint64_t, LruList::iterator>;

  /// Moves the node to the front (most recent). Caller holds the mutex.
  void TouchLocked(LruList::iterator it);
  /// Links a new node in at the front, charges it and evicts down to the
  /// budget. Caller holds the mutex.
  void InsertLocked(Node node, Index& index);
  /// Evicts LRU tail nodes until the budget holds. Caller holds the mutex.
  void EvictLocked();
  /// The scenario- or response-level node matching the key exactly, if
  /// resident. An empty `scheduler` selects the scenario level.
  std::optional<LruList::iterator> FindLocked(
      std::uint64_t hash, std::string_view scheduler, const SharedBytes& blob,
      bool count_collisions = true) const;
  /// The payload node whose bytes equal `raw.payload`. Bumps
  /// cache_collisions for each same-key node that differs.
  std::optional<LruList::iterator> FindPayloadLocked(
      const RawPayload& raw) const;

  void Bump(std::atomic<std::uint64_t> ServiceMetrics::* counter) const;

  CacheOptions options_;
  ServiceMetrics* metrics_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  Index index_;          // scenario and response nodes, by their hash
  Index payload_index_;  // payload nodes, by RawPayload::key
  std::uint64_t payload_serial_ = 0;
  std::size_t current_bytes_ = 0;
};

}  // namespace fadesched::service
