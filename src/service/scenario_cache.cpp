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
    std::uint64_t hash, std::string_view scheduler, std::string_view blob,
    bool count_collisions) const {
  const bool response_level = !scheduler.empty();
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    const Node& node = *it->second;
    if (node.response.has_value() == response_level &&
        node.scheduler == scheduler && node.blob.view() == blob) {
      return it->second;
    }
    if (count_collisions) Bump(&ServiceMetrics::cache_collisions);
  }
  return std::nullopt;
}

void ScenarioCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
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
    Unindex(index_, victim->hash, victim);
    if (victim->raw_payload.has_value()) {
      Unindex(raw_index_, victim->raw_key, victim);
    }
    current_bytes_ -= victim->cost_bytes;
    lru_.erase(victim);
    Bump(&ServiceMetrics::cache_evictions);
  }
}

void ScenarioCache::AttachRawLocked(LruList::iterator it,
                                    const RawPayload& raw) {
  if (it->raw_payload.has_value()) {
    Unindex(raw_index_, it->raw_key, it);
    it->cost_bytes -= it->raw_payload->size();
    current_bytes_ -= it->raw_payload->size();
  }
  it->raw_payload.emplace(raw.payload);
  it->verified.reset();
  it->raw_key = raw.key;
  it->raw_serial = ++raw_attaches_;
  raw_index_.emplace(raw.key, it);
  it->cost_bytes += raw.payload.size();
  current_bytes_ += raw.payload.size();
  EvictLocked();  // `it` was just touched, and the front is never evicted
}

std::size_t ScenarioCache::EstimateScenarioBytes(
    const Scenario& scenario, const channel::EngineOptions& /*engine*/) {
  // LinkSet SoA (7 doubles/link) + the engine's per-link tables (another
  // 7 doubles/link, on either backend) + the canonical bytes held for the
  // collision guard (charged here and to each response entry, though they
  // share them).
  return kNodeOverheadBytes + scenario.canonical_scenario.size() +
         14 * sizeof(double) * scenario.links.Size();
}

bool ScenarioCache::IsWarm(const Fingerprint& fp) const {
  const std::string_view blob = fp.canonical_scenario.view();
  std::lock_guard<std::mutex> lock(mutex_);
  return FindLocked(fp.request_hash, fp.scheduler, blob, false) ||
         FindLocked(fp.scenario_hash, {}, blob, false);
}

ScenarioCache::ScenarioPtr ScenarioCache::ObtainScenario(
    const Fingerprint& fp, const SchedulingRequest& request, bool* hit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        FindLocked(fp.scenario_hash, {}, fp.canonical_scenario.view());
    if (it) {
      TouchLocked(*it);
      Bump(&ServiceMetrics::scenario_hits);
      if (hit != nullptr) *hit = true;
      return (*it)->scenario;
    }
  }

  // Miss: build outside the lock. The entry sits behind a shared_ptr, so
  // `built->links` has its final address before the engine captures it.
  Bump(&ServiceMetrics::scenario_misses);
  if (hit != nullptr) *hit = false;
  auto built = std::make_shared<Scenario>();
  built->links = request.scenario.links;
  built->params = request.scenario.params;
  built->canonical_scenario = fp.canonical_scenario;
  channel::EngineOptions engine_options = options_.engine;
  engine_options.shared.reset();
  built->engine.emplace(built->links, built->params, engine_options);
  built->cost_bytes = EstimateScenarioBytes(*built, engine_options);

  std::lock_guard<std::mutex> lock(mutex_);
  // Two threads may have raced the build; first insert wins and the loser
  // adopts it (both engines are bit-identical, so either is correct).
  const auto raced =
      FindLocked(fp.scenario_hash, {}, fp.canonical_scenario.view());
  if (raced) {
    TouchLocked(*raced);
    return (*raced)->scenario;
  }
  Node node;
  node.hash = fp.scenario_hash;
  node.blob = built->canonical_scenario;
  node.scenario = built;
  node.cost_bytes = built->cost_bytes;
  lru_.push_front(std::move(node));
  index_.emplace(fp.scenario_hash, lru_.begin());
  current_bytes_ += built->cost_bytes;
  EvictLocked();
  return built;
}

bool ScenarioCache::LookupResponse(const Fingerprint& fp,
                                   SchedulingResponse* out,
                                   bool count_miss, const RawPayload* attach) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = FindLocked(fp.request_hash, fp.scheduler,
                             fp.canonical_scenario.view());
  if (!it) {
    if (count_miss) Bump(&ServiceMetrics::response_misses);
    return false;
  }
  TouchLocked(*it);
  Bump(&ServiceMetrics::response_hits);
  if (out != nullptr) *out = *(*it)->response;
  if (attach != nullptr && (*it)->raw_payload != attach->payload) {
    AttachRawLocked(*it, *attach);
  }
  return true;
}

std::optional<ScenarioCache::LruList::iterator> ScenarioCache::FindRawLocked(
    const RawPayload& raw) const {
  auto [begin, end] = raw_index_.equal_range(raw.key);
  for (auto entry = begin; entry != end; ++entry) {
    const LruList::iterator it = entry->second;
    if (it->scheduler == raw.scheduler && *it->raw_payload == raw.payload) {
      return it;
    }
    Bump(&ServiceMetrics::cache_collisions);
  }
  return std::nullopt;
}

bool ScenarioCache::LookupRaw(const RawPayload& raw, SchedulingResponse* out,
                              std::optional<RawCheck> check,
                              bool* check_matched) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::optional<LruList::iterator> found = FindRawLocked(raw);
  bool passed = false;
  if (found && check) {
    const std::optional<RawCheck>& verified = (*found)->verified;
    if (verified && verified->state == check->state) {
      // The payload's hash from this state is known: one compare decides.
      if (verified->expected != check->expected) return false;
    } else {
      // Unlocked: a full pass over the payload. The serial finds the same
      // attach again, or nothing if it is gone.
      const std::uint64_t serial = (*found)->raw_serial;
      lock.unlock();
      Bump(&ServiceMetrics::raw_check_passes);
      if (util::Fnv1a64(raw.payload, check->state) != check->expected) {
        return false;
      }
      passed = true;
      if (check_matched != nullptr) *check_matched = true;
      lock.lock();
      found.reset();
      auto [begin, end] = raw_index_.equal_range(raw.key);
      for (auto entry = begin; entry != end && !found; ++entry) {
        if (entry->second->raw_serial == serial) found = entry->second;
      }
    }
  }
  if (!found) return false;
  TouchLocked(*found);
  if (passed) (*found)->verified = *check;
  Bump(&ServiceMetrics::response_hits);
  Bump(&ServiceMetrics::raw_hits);
  if (out != nullptr) *out = *(*found)->response;
  return true;
}

void ScenarioCache::StoreResponse(const Fingerprint& fp,
                                  const SchedulingResponse& response) {
  if (!response.Ok()) return;  // admission failures must not be replayed
  SchedulingResponse stored = response;
  stored.id.clear();          // correlation tag is per-request
  stored.cache_hit = false;   // stamped by the caller on each serve
  const std::size_t cost = EstimateResponseBytes(fp, stored);

  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(fp.request_hash, fp.scheduler,
                 fp.canonical_scenario.view())) {
    return;
  }
  Node node;
  node.hash = fp.request_hash;
  node.blob = fp.canonical_scenario;
  node.scheduler = fp.scheduler;
  node.response = std::move(stored);
  node.cost_bytes = cost;
  lru_.push_front(std::move(node));
  index_.emplace(fp.request_hash, lru_.begin());
  current_bytes_ += cost;
  EvictLocked();
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
  raw_index_.clear();
  current_bytes_ = 0;
}

}  // namespace fadesched::service
