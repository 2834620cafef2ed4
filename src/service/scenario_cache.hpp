// Bounded-memory LRU cache of scheduling state, keyed by the canonical
// content fingerprint.
//
// Two levels share one byte budget and one recency list:
//
//   * scenario entries — the parsed LinkSet plus a built
//     channel::InterferenceEngine (the service's configured backend), so
//     a repeated or perturbed-then-repeated topology skips the O(N) table
//     build. Entries are handed out as shared_ptr<const ...>, so eviction
//     can never invalidate an engine a worker is scheduling against.
//   * response entries — the completed SchedulingResponse for
//     (scenario, scheduler), so an identical repeat request skips
//     scheduling entirely.
//
// A response entry may also carry one raw frame payload (the raw level):
// the exact `.scenario` bytes of a frame whose fingerprint hit it. A later
// frame with the same scheduler and byte-identical payload is served from
// it by LookupRaw without parsing or fingerprinting. The payload is
// attached on the entry's first fingerprint hit from a frame, so one-shot
// misses copy nothing; it is charged to the entry's cost and dies with it.
// A raw hit still verifies the frame's check=. The entry remembers the
// last full pass over its payload that matched (header state and hash),
// so a header with that state decides check= by one compare; any other
// header state takes one full pass. The memo is written only by a pass
// that matched and is dropped with the payload it was computed over.
//
// Hash collisions are rejected, not served: every entry stores the bytes
// it was keyed by (canonical blob, scheduler name, raw payload) and a
// lookup compares them before declaring a hit (a 64-bit content hash
// makes collisions vanishingly rare; comparing makes serving a wrong
// schedule impossible). The canonical blob is held once per scenario: the
// fingerprint, the scenario entry and its response entries share it.
//
// All operations are thread-safe behind one mutex; engine builds happen
// OUTSIDE the lock so a large miss cannot stall concurrent hits. Two
// threads missing on the same key may both build — the first insert wins,
// which is harmless because engine construction is deterministic.
#pragma once

#include <cstddef>
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
  /// Total budget across scenario and response entries. Inserting an
  /// over-budget entry evicts from the LRU tail first; a single entry
  /// larger than the whole budget is still admitted (and evicted as soon
  /// as anything newer lands) so a giant scenario cannot wedge the
  /// service.
  std::size_t capacity_bytes = 256ull << 20;

  /// Backend configuration for memoized engines. `shared` must be empty;
  /// the cache is the thing that fills it in.
  channel::EngineOptions engine;
};

/// A request frame's payload as the raw level keys it. The views point
/// into the frame and are only read during the call that receives them.
struct RawPayload {
  std::uint64_t key = 0;  ///< PayloadKey(scheduler, payload)
  std::string_view scheduler;
  std::string_view payload;
};

/// A frame's check= claim as the raw level verifies it: the header's FNV
/// state (RequestHeader::check_state) and the value check= names. The
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

  /// Returns the memoized state for `fp`, building (links copied out of
  /// `request.scenario`, engine constructed with the configured backend)
  /// and inserting on miss. Sets *hit accordingly when non-null.
  ScenarioPtr ObtainScenario(const Fingerprint& fp,
                             const SchedulingRequest& request,
                             bool* hit = nullptr);

  /// True when serving `fp` would be cheap: its response or its built
  /// scenario is resident. A pure peek — no LRU touch, no counters — so
  /// admission-time classification cannot perturb eviction order or the
  /// hit-rate metrics.
  [[nodiscard]] bool IsWarm(const Fingerprint& fp) const;

  /// Response memoization. Lookup copies the stored response into *out
  /// (id/cache_hit fields left for the caller to stamp). Store ignores
  /// non-kOk responses — admission failures must not be replayed.
  /// `count_miss=false` is for pre-handler probes (the Submit fast path):
  /// a probe that misses hands the request to HandleNow, whose own lookup
  /// is the authoritative miss — counting both would double every cold
  /// request in the warm-hit-rate denominator. On a hit, `attach` (the
  /// payload of the frame the request was parsed from) becomes the
  /// entry's raw payload, replacing any other.
  bool LookupResponse(const Fingerprint& fp, SchedulingResponse* out,
                      bool count_miss = true,
                      const RawPayload* attach = nullptr);
  void StoreResponse(const Fingerprint& fp, const SchedulingResponse& response);

  /// The raw level: a response entry whose attached payload and scheduler
  /// equal `raw`'s byte for byte. A hit touches and counts like a
  /// LookupResponse hit, and also bumps raw_hits; a miss counts nothing
  /// (the parse path that follows does). A given `check` is verified on
  /// a match, before anything is touched or counted: by one compare when
  /// `check->state` is the state of the entry's last verified pass,
  /// otherwise by one full FNV pass outside the lock (bumping
  /// raw_check_passes). If the claim fails, or the entry is evicted or
  /// re-attached during the pass, the lookup misses. A pass that matched
  /// sets *check_matched (when non-null), and on a hit it becomes the
  /// entry's verified pass.
  bool LookupRaw(const RawPayload& raw, SchedulingResponse* out,
                 std::optional<RawCheck> check = std::nullopt,
                 bool* check_matched = nullptr);

  [[nodiscard]] std::size_t CurrentBytes() const;
  [[nodiscard]] std::size_t NumEntries() const;

  /// Drops everything (tests; administrative reset).
  void Clear();

  /// Cost model used for the byte budget, exposed for tests. Every
  /// backend holds O(N) tables, so `engine` does not change the estimate.
  static std::size_t EstimateScenarioBytes(const Scenario& scenario,
                                           const channel::EngineOptions& engine);

 private:
  // One LRU node covers either level; exactly one of scenario/response is
  // set. The exact-match key is `blob` at the scenario level and
  // (`scheduler`, `blob`) at the response level.
  struct Node {
    std::uint64_t hash = 0;
    SharedBytes blob;
    std::string scheduler;
    ScenarioPtr scenario;
    std::optional<SchedulingResponse> response;
    /// Response level only: the attached raw payload, keyed in raw_index_.
    std::optional<std::string> raw_payload;
    std::uint64_t raw_key = 0;
    std::uint64_t raw_serial = 0;  ///< distinct for every attach
    /// The last full pass over raw_payload that matched: Fnv1a64(
    /// *raw_payload, state) == expected. Inline, so the node's overhead
    /// estimate covers it.
    std::optional<RawCheck> verified;
    std::size_t cost_bytes = 0;
  };
  using LruList = std::list<Node>;
  using Index = std::unordered_multimap<std::uint64_t, LruList::iterator>;

  /// Moves the node to the front (most recent). Caller holds the mutex.
  void TouchLocked(LruList::iterator it);
  /// Evicts LRU tail nodes until the budget holds. Caller holds the mutex.
  void EvictLocked();
  /// The node of the given level matching the key exactly, if resident.
  /// An empty `scheduler` selects the scenario level.
  std::optional<LruList::iterator> FindLocked(std::uint64_t hash, std::string_view scheduler,
                               std::string_view blob,
                               bool count_collisions = true) const;
  /// Makes `payload` the node's one raw payload, dropping the verified
  /// pass of the one it replaces. Caller holds the mutex.
  void AttachRawLocked(LruList::iterator it, const RawPayload& raw);
  /// The response node whose raw payload and scheduler equal `raw`'s.
  /// Bumps cache_collisions for each same-key node that differs.
  std::optional<LruList::iterator> FindRawLocked(const RawPayload& raw) const;

  void Bump(std::atomic<std::uint64_t> ServiceMetrics::* counter) const;

  CacheOptions options_;
  ServiceMetrics* metrics_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  Index index_;      // both levels, by scenario_hash / request_hash
  Index raw_index_;  // response nodes with a raw payload, by its key
  std::uint64_t raw_attaches_ = 0;
  std::size_t current_bytes_ = 0;
};

}  // namespace fadesched::service
