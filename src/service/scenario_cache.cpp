#include "service/scenario_cache.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/fnv.hpp"

namespace fadesched::service {

namespace {

// Fixed per-node bookkeeping (list/map nodes, small strings) — a floor so
// a cache of thousands of tiny responses still respects the budget.
constexpr std::size_t kNodeOverheadBytes = 512;

std::size_t EstimateResponseBytes(const Fingerprint& fp,
                                  const SchedulingResponse& response) {
  return kNodeOverheadBytes + fp.canonical_scenario.size() +
         response.schedule.size() * sizeof(net::LinkId) +
         response.message.size();
}

}  // namespace

ScenarioCache::ScenarioCache(CacheOptions options, ServiceMetrics* metrics)
    : options_(std::move(options)), metrics_(metrics) {
  FS_CHECK_MSG(options_.engine.shared == nullptr,
               "CacheOptions::engine.shared must be empty — the cache fills "
               "it in per request");
}

void ScenarioCache::Bump(
    std::atomic<std::uint64_t> ServiceMetrics::* counter) const {
  if (metrics_ != nullptr) {
    (metrics_->*counter).fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<ScenarioCache::LruList::iterator> ScenarioCache::FindLocked(
    std::uint64_t hash, std::string_view scheduler, const SharedBytes& blob,
    bool count_collisions) const {
  const bool response_level = !scheduler.empty();
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const Node& node = *it->second;
    if (node.response.has_value() == response_level &&
        node.scheduler == scheduler && node.blob == blob) {
      return it->second;
    }
    if (count_collisions) Bump(&ServiceMetrics::cache_collisions);
  }
  return std::nullopt;
}

std::optional<ScenarioCache::LruList::iterator>
ScenarioCache::FindPayloadLocked(const RawPayload& raw) const {
  auto [begin, end] = payload_index_.equal_range(raw.key);
  for (auto entry = begin; entry != end; ++entry) {
    if (entry->second->payload->bytes == raw.payload) return entry->second;
    Bump(&ServiceMetrics::cache_collisions);
  }
  return std::nullopt;
}

void ScenarioCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ScenarioCache::InsertLocked(Node node, Index& index) {
  const std::uint64_t hash = node.hash;
  current_bytes_ += node.cost_bytes;
  lru_.push_front(std::move(node));
  index.emplace(hash, lru_.begin());
  EvictLocked();  // the front is never evicted
}

namespace {

template <typename Index, typename Iterator>
void Unindex(Index& index, std::uint64_t hash, Iterator node) {
  auto [begin, end] = index.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second == node) {
      index.erase(it);
      return;
    }
  }
}

}  // namespace

void ScenarioCache::EvictLocked() {
  while (current_bytes_ > options_.capacity_bytes && lru_.size() > 1) {
    const auto victim = std::prev(lru_.end());
    Unindex(victim->payload ? payload_index_ : index_, victim->hash, victim);
    current_bytes_ -= victim->cost_bytes;
    lru_.erase(victim);
    Bump(&ServiceMetrics::cache_evictions);
  }
}

std::size_t ScenarioCache::EstimateScenarioBytes(
    const Scenario& scenario, const channel::EngineOptions& /*engine*/) {
  // LinkSet SoA (7 doubles/link) + the engine's per-link tables (another
  // 7 doubles/link, on either backend) + the canonical bytes held for the
  // collision guard (charged here and to each response and payload
  // entry, though they share them).
  return kNodeOverheadBytes + scenario.canonical_scenario.size() +
         14 * sizeof(double) * scenario.links.Size();
}

bool ScenarioCache::IsWarm(const Fingerprint& fp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindLocked(fp.request_hash, fp.scheduler, fp.canonical_scenario,
                    false) ||
         FindLocked(fp.scenario_hash, {}, fp.canonical_scenario, false);
}

ScenarioCache::ScenarioPtr ScenarioCache::PeekScenario(
    const Fingerprint& fp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = FindLocked(fp.scenario_hash, {}, fp.canonical_scenario,
                             false);
  return it ? (*it)->scenario : nullptr;
}

ScenarioCache::ScenarioPtr ScenarioCache::ObtainScenario(
    const Fingerprint& fp, const SchedulingRequest& request, bool* hit,
    ScenarioPtr pinned) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = FindLocked(fp.scenario_hash, {}, fp.canonical_scenario);
    if (it) {
      TouchLocked(*it);
      Bump(&ServiceMetrics::scenario_hits);
      if (hit != nullptr) *hit = true;
      return (*it)->scenario;
    }
  }

  // Miss: a pinned entry goes back in as it is; anything else is built
  // outside the lock. The entry sits behind a shared_ptr, so
  // `built->links` has its final address before the engine captures it.
  if (hit != nullptr) *hit = pinned != nullptr;
  ScenarioPtr entry = std::move(pinned);
  if (entry != nullptr) {
    Bump(&ServiceMetrics::scenario_hits);
  } else {
    Bump(&ServiceMetrics::scenario_misses);
    auto built = std::make_shared<Scenario>();
    built->links = request.scenario.links;
    built->params = request.scenario.params;
    built->canonical_scenario = fp.canonical_scenario;
    channel::EngineOptions engine_options = options_.engine;
    engine_options.shared.reset();
    built->engine.emplace(built->links, built->params, engine_options);
    built->cost_bytes = EstimateScenarioBytes(*built, engine_options);
    entry = std::move(built);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Two threads may have raced the build; first insert wins and the loser
  // adopts it (both engines are bit-identical, so either is correct).
  const auto raced = FindLocked(fp.scenario_hash, {}, fp.canonical_scenario);
  if (raced) {
    TouchLocked(*raced);
    return (*raced)->scenario;
  }
  Node node;
  node.hash = fp.scenario_hash;
  node.blob = entry->canonical_scenario;
  node.scenario = entry;
  node.cost_bytes = entry->cost_bytes;
  InsertLocked(std::move(node), index_);
  return entry;
}

bool ScenarioCache::LookupResponse(const Fingerprint& fp,
                                   SchedulingResponse* out, bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      FindLocked(fp.request_hash, fp.scheduler, fp.canonical_scenario);
  if (!it) {
    if (count_miss) Bump(&ServiceMetrics::response_misses);
    return false;
  }
  TouchLocked(*it);
  Bump(&ServiceMetrics::response_hits);
  if (out != nullptr) *out = *(*it)->response;
  return true;
}

std::optional<Fingerprint> ScenarioCache::LookupPayload(
    const RawPayload& raw, std::string_view scheduler, RawCheck check) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::optional<LruList::iterator> found = FindPayloadLocked(raw);
  if (!found) return std::nullopt;
  const Payload* entry = (*found)->payload.get();
  if (entry->verified && entry->verified->state == check.state) {
    // The payload's hash from this state is known: one compare decides.
    if (entry->verified->expected != check.expected) return std::nullopt;
  } else {
    // Unlocked: a full pass over the frame's copy of the bytes. The
    // serial finds the same entry again, or nothing if it is gone.
    const std::uint64_t serial = entry->serial;
    lock.unlock();
    Bump(&ServiceMetrics::raw_check_passes);
    if (util::Fnv1a64(raw.payload, check.state) != check.expected) {
      return std::nullopt;
    }
    lock.lock();
    found.reset();
    auto [begin, end] = payload_index_.equal_range(raw.key);
    for (auto it = begin; it != end && !found; ++it) {
      if (it->second->payload->serial == serial) found = it->second;
    }
    if (!found) return std::nullopt;
    (*found)->payload->verified = check;
  }
  TouchLocked(*found);
  Fingerprint fp;
  fp.scenario_hash = (*found)->payload->scenario_hash;
  fp.canonical_scenario = (*found)->blob;
  lock.unlock();
  fp.scheduler = scheduler;
  fp.request_hash = RequestHash(fp.scenario_hash, scheduler);
  return fp;
}

void ScenarioCache::AttachPayload(const RawPayload& raw,
                                  const Fingerprint& fp) {
  // Copied and sized outside the lock; dropped if the payload turns out
  // to be resident already or the fingerprint not to be.
  auto payload = std::make_unique<Payload>();
  payload->bytes.assign(raw.payload);
  payload->scenario_hash = fp.scenario_hash;

  std::lock_guard<std::mutex> lock(mutex_);
  if (FindPayloadLocked(raw)) return;
  auto resident =
      FindLocked(fp.request_hash, fp.scheduler, fp.canonical_scenario, false);
  if (!resident) {
    resident = FindLocked(fp.scenario_hash, {}, fp.canonical_scenario, false);
  }
  if (!resident) return;
  payload->serial = ++payload_serial_;
  Node node;
  node.hash = raw.key;
  node.blob = (*resident)->blob;  // the resident allocation, not fp's copy
  node.cost_bytes = kNodeOverheadBytes + sizeof(Payload) +
                    payload->bytes.size() + node.blob.size();
  node.payload = std::move(payload);
  InsertLocked(std::move(node), payload_index_);
}

void ScenarioCache::StoreResponse(const Fingerprint& fp,
                                  const SchedulingResponse& response) {
  if (!response.Ok()) return;  // admission failures must not be replayed
  SchedulingResponse stored = response;
  stored.id.clear();          // correlation tag is per-request
  stored.cache_hit = false;   // stamped by the caller on each serve
  const std::size_t cost = EstimateResponseBytes(fp, stored);

  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(fp.request_hash, fp.scheduler, fp.canonical_scenario)) {
    return;
  }
  Node node;
  node.hash = fp.request_hash;
  node.blob = fp.canonical_scenario;
  node.scheduler = fp.scheduler;
  node.response = std::move(stored);
  node.cost_bytes = cost;
  InsertLocked(std::move(node), index_);
}

std::size_t ScenarioCache::CurrentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_bytes_;
}

std::size_t ScenarioCache::NumEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void ScenarioCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  payload_index_.clear();
  current_bytes_ = 0;
}

}  // namespace fadesched::service
