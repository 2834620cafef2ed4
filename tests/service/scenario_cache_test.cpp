#include "service/scenario_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "testing/fuzzer.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest(std::uint64_t case_index,
                              const std::string& scheduler = "rle") {
  fadesched::testing::ScenarioFuzzer fuzzer(42);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = scheduler;
  return request;
}

TEST(ScenarioCacheTest, MissBuildsThenHits) {
  ServiceMetrics metrics;
  ScenarioCache cache({}, &metrics);
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);

  bool hit = true;
  const ScenarioCache::ScenarioPtr first =
      cache.ObtainScenario(fp, request, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->engine.has_value());
  EXPECT_EQ(first->links.Size(), request.scenario.links.Size());

  const ScenarioCache::ScenarioPtr second =
      cache.ObtainScenario(fp, request, &hit);
  EXPECT_TRUE(hit);
  // A hit is the SAME memoized object, not an equivalent rebuild.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(metrics.scenario_misses.load(), 1u);
  EXPECT_EQ(metrics.scenario_hits.load(), 1u);
}

TEST(ScenarioCacheTest, EngineIsBuiltOverTheEntrysOwnLinks) {
  ScenarioCache cache;
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);
  const ScenarioCache::ScenarioPtr entry = cache.ObtainScenario(fp, request);
  // The engine's LinkSet pointer must target the entry's own copy — that
  // is what makes the shared_ptr hand-off to schedulers safe.
  EXPECT_EQ(&entry->engine->Links(), &entry->links);
}

TEST(ScenarioCacheTest, ResponseRoundTripStripsPerRequestFields) {
  ScenarioCache cache;
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);

  SchedulingResponse miss;
  EXPECT_FALSE(cache.LookupResponse(fp, &miss));

  SchedulingResponse stored;
  stored.status = ResponseStatus::kOk;
  stored.schedule = {1, 3, 5};
  stored.claimed_rate = 3.0;
  stored.id = "r17";
  stored.cache_hit = true;  // must not leak into the stored copy
  cache.StoreResponse(fp, stored);

  SchedulingResponse out;
  ASSERT_TRUE(cache.LookupResponse(fp, &out));
  EXPECT_EQ(out.schedule, stored.schedule);
  EXPECT_DOUBLE_EQ(out.claimed_rate, 3.0);
  EXPECT_TRUE(out.id.empty());
  EXPECT_FALSE(out.cache_hit);
}

TEST(ScenarioCacheTest, FailedResponsesAreNeverCached) {
  ScenarioCache cache;
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);

  SchedulingResponse shed;
  shed.status = ResponseStatus::kShed;
  cache.StoreResponse(fp, shed);
  SchedulingResponse out;
  EXPECT_FALSE(cache.LookupResponse(fp, &out));
}

TEST(ScenarioCacheTest, SchedulerNameKeysTheResponseLevel) {
  ScenarioCache cache;
  const SchedulingRequest rle = MakeRequest(0, "rle");
  const SchedulingRequest ldp = MakeRequest(0, "ldp");
  const Fingerprint fp_rle = FingerprintRequest(rle);
  const Fingerprint fp_ldp = FingerprintRequest(ldp);

  SchedulingResponse response;
  response.status = ResponseStatus::kOk;
  response.schedule = {2};
  cache.StoreResponse(fp_rle, response);

  SchedulingResponse out;
  EXPECT_TRUE(cache.LookupResponse(fp_rle, &out));
  EXPECT_FALSE(cache.LookupResponse(fp_ldp, &out));
}

TEST(ScenarioCacheTest, LruEvictsOldestUnderByteBudget) {
  ServiceMetrics metrics;
  // Budget sized to hold only a couple of small scenarios.
  CacheOptions options;
  options.capacity_bytes = 8 * 1024;
  ScenarioCache cache(options, &metrics);

  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const SchedulingRequest request = MakeRequest(i);
    fps.push_back(FingerprintRequest(request));
    cache.ObtainScenario(fps.back(), request);
  }
  EXPECT_GT(metrics.cache_evictions.load(), 0u);
  EXPECT_LE(cache.CurrentBytes(), options.capacity_bytes);

  // The most recent entry must have survived...
  bool hit = false;
  cache.ObtainScenario(fps.back(), MakeRequest(5), &hit);
  EXPECT_TRUE(hit);
  // ...and the oldest must be gone.
  cache.ObtainScenario(fps.front(), MakeRequest(0), &hit);
  EXPECT_FALSE(hit);
}

TEST(ScenarioCacheTest, TouchingAnEntryProtectsItFromEviction) {
  CacheOptions options;
  options.capacity_bytes = 8 * 1024;
  ScenarioCache cache(options);

  const SchedulingRequest keep = MakeRequest(0);
  const Fingerprint keep_fp = FingerprintRequest(keep);
  cache.ObtainScenario(keep_fp, keep);
  for (std::uint64_t i = 1; i < 5; ++i) {
    const SchedulingRequest filler = MakeRequest(i);
    cache.ObtainScenario(FingerprintRequest(filler), filler);
    cache.ObtainScenario(keep_fp, keep);  // refresh recency each round
  }
  bool hit = false;
  cache.ObtainScenario(keep_fp, keep, &hit);
  EXPECT_TRUE(hit);
}

TEST(ScenarioCacheTest, OversizedEntryStillAdmitted) {
  CacheOptions options;
  options.capacity_bytes = 1;  // smaller than any entry
  ScenarioCache cache(options);
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);
  const ScenarioCache::ScenarioPtr entry = cache.ObtainScenario(fp, request);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.NumEntries(), 1u);
}

TEST(ScenarioCacheTest, EvictedEntryStaysAliveThroughSharedPtr) {
  CacheOptions options;
  options.capacity_bytes = 8 * 1024;
  ScenarioCache cache(options);
  const SchedulingRequest request = MakeRequest(0);
  const ScenarioCache::ScenarioPtr held =
      cache.ObtainScenario(FingerprintRequest(request), request);
  for (std::uint64_t i = 1; i < 6; ++i) {
    const SchedulingRequest filler = MakeRequest(i);
    cache.ObtainScenario(FingerprintRequest(filler), filler);
  }
  // Entry 0 was evicted, but the handed-out pointer still works — a
  // worker mid-schedule must never see its engine die underneath it.
  EXPECT_GT(held->engine->Size(), 0u);
  EXPECT_EQ(&held->engine->Links(), &held->links);
}

TEST(ScenarioCacheTest, ConcurrentMissesConvergeToOneEntry) {
  ServiceMetrics metrics;
  ScenarioCache cache({}, &metrics);
  const SchedulingRequest request = MakeRequest(0);
  const Fingerprint fp = FingerprintRequest(request);

  std::vector<std::thread> threads;
  std::vector<ScenarioCache::ScenarioPtr> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          cache.ObtainScenario(fp, request);
    });
  }
  for (auto& thread : threads) thread.join();
  // Racing builds are allowed, but everyone must end up agreeing on one
  // memoized object (first insert wins).
  EXPECT_EQ(cache.NumEntries(), 1u);
  for (const auto& result : results) {
    EXPECT_EQ(result.get(), results[0].get());
  }
}

TEST(ScenarioCacheTest, ClearDropsEverything) {
  ScenarioCache cache;
  const SchedulingRequest request = MakeRequest(0);
  cache.ObtainScenario(FingerprintRequest(request), request);
  EXPECT_GT(cache.CurrentBytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.CurrentBytes(), 0u);
  EXPECT_EQ(cache.NumEntries(), 0u);
}

}  // namespace
}  // namespace fadesched::service
