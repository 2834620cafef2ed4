// The response cache's raw level, as SubmitFrame uses it: a frame whose
// (scheduler, payload) bytes are resident is answered without a scenario
// parse, and must be indistinguishable on the wire and in STATS from the
// parse path it skips.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/scenario_cache.hpp"
#include "service/service.hpp"
#include "testing/corpus.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest(std::uint64_t case_index,
                              const std::string& id = "r") {
  fadesched::testing::ScenarioFuzzer fuzzer(7);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

/// A request frame as the front-ends hand it over: END line stripped.
std::string FrameOf(const SchedulingRequest& request) {
  const std::string frame = FormatRequestFrame(request);
  return frame.substr(0, frame.size() - 4);
}

SchedulingRequest WithId(SchedulingRequest request, const std::string& id) {
  request.id = id;
  return request;
}

/// What the parse path answers: a fresh service, so nothing is resident.
std::string ColdAnswer(const std::string& frame) {
  SchedulingService cold;
  return FormatResponseLine(cold.SubmitFrame(frame).get());
}

/// Sends `request` twice under fresh ids: a miss, then a canonical hit
/// that attaches its payload to the response entry.
void MakeResident(SchedulingService& service, const SchedulingRequest& request) {
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-1"))).get().Ok());
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-2"))).get().Ok());
  ASSERT_EQ(service.Metrics().raw_hits.load(), 0u);
}

TEST(RawIndexTest, RawHitIsByteIdenticalToHandleNowAndEchoesItsId) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  SchedulingService reference;
  for (const char* id : {"first", "second", "third", "fourth"}) {
    const std::string frame = FrameOf(WithId(request, id));
    const SchedulingResponse response = service.SubmitFrame(frame).get();
    EXPECT_EQ(response.id, id);
    EXPECT_EQ(FormatResponseLine(response),
              FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame))))
        << id;
  }
  // Miss, canonical hit (attaches), then two raw hits.
  EXPECT_EQ(service.Metrics().response_hits.load(), 3u);
  EXPECT_EQ(service.Metrics().raw_hits.load(), 2u);
}

TEST(RawIndexTest, TamperedCheckOnAResidentPayloadIsTransientAndNotServed) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  const std::uint64_t hits = service.Metrics().response_hits.load();
  const std::uint64_t submitted = service.Metrics().submitted.load();

  std::string tampered_check = FrameOf(WithId(request, "c"));
  const std::size_t digit = tampered_check.find(" check=") + 7;
  tampered_check[digit] = tampered_check[digit] == '0' ? '1' : '0';
  // The same bytes under a flipped id byte: check= no longer covers them.
  std::string tampered_id = FrameOf(WithId(request, "c"));
  tampered_id[tampered_id.find(" id=c") + 4] = 'd';

  std::size_t failures = 0;
  for (const std::string& frame : {tampered_check, tampered_id}) {
    std::future<SchedulingResponse> future = service.SubmitFrame(frame);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const SchedulingResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
    EXPECT_EQ(response.id, "-");
    EXPECT_EQ(FormatResponseLine(response), ColdAnswer(frame));
    EXPECT_EQ(service.Metrics().checksum_failures.load(), ++failures);
  }
  EXPECT_EQ(service.Metrics().response_hits.load(), hits);
  EXPECT_EQ(service.Metrics().raw_hits.load(), 0u);
  EXPECT_EQ(service.Metrics().submitted.load(), submitted);
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 0u);
  EXPECT_EQ(service.Metrics().cache_collisions.load(), 0u);

  // Nor does it refresh the entry's LRU position. Three equal-sized
  // scenarios fill a cache to capacity; with the oldest tampered, one
  // more insert evicts from the tail, so the oldest response goes (its
  // scenario entry first) while the next oldest stays.
  fadesched::testing::FuzzerOptions sized;
  sized.min_links = sized.max_links = 40;
  std::vector<SchedulingRequest> fill;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SchedulingRequest each = request;
    each.scenario = fadesched::testing::ScenarioFuzzer(7, sized).Case(i);
    fill.push_back(each);
  }
  ServiceOptions options;
  {
    SchedulingService probe;
    for (std::size_t i = 0; i < 3; ++i) MakeResident(probe, fill[i]);
    options.cache.capacity_bytes = probe.Cache().CurrentBytes();
  }
  SchedulingService lru(options);
  for (std::size_t i = 0; i < 3; ++i) MakeResident(lru, fill[i]);
  ASSERT_EQ(lru.Metrics().cache_evictions.load(), 0u);
  std::string tampered_oldest = FrameOf(WithId(fill[0], "t"));
  const std::size_t at = tampered_oldest.find(" check=") + 7;
  tampered_oldest[at] = tampered_oldest[at] == '0' ? '1' : '0';
  EXPECT_EQ(lru.SubmitFrame(tampered_oldest).get().error_kind,
            util::ErrorKind::kTransient);
  ASSERT_TRUE(lru.SubmitFrame(FrameOf(WithId(fill[3], "n"))).get().Ok());
  ASSERT_GT(lru.Metrics().cache_evictions.load(), 0u);
  const auto resident = [&lru](const SchedulingRequest& each) {
    const std::string payload =
        fadesched::testing::FormatScenario(each.scenario);
    return lru.Cache().LookupRaw(
        {PayloadKey(each.scheduler, payload), each.scheduler, payload},
        nullptr);
  };
  EXPECT_FALSE(resident(fill[0])) << "the tampered frame refreshed its entry";
  EXPECT_TRUE(resident(fill[1]));
  EXPECT_EQ(lru.Metrics().cache_collisions.load(), 0u);
}

TEST(RawIndexTest, HeaderErrorsOnAResidentPayloadMatchTheParsePath) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);

  const std::string frame = FrameOf(WithId(request, "h"));
  const std::size_t header_end = frame.find('\n');
  const std::string header = frame.substr(0, header_end);
  const std::string payload = frame.substr(header_end);  // from the '\n'
  const std::string check = header.substr(header.find(" check="));
  const std::vector<std::string> bad_headers = {
      "REQUEST id=h scheduler=rle bogus=1" + check,
      "REQUEST scheduler=rle" + check,
      "REQUEST id=h scheduler=rle deadline=soon" + check,
      "REQUEST id=h scheduler=rle deadline=-1" + check,
  };
  std::uint64_t errors = 0;
  for (const std::string& bad : bad_headers) {
    const std::string mutated = bad + payload;
    const SchedulingResponse response = service.SubmitFrame(mutated).get();
    EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal) << bad;
    EXPECT_EQ(FormatResponseLine(response), ColdAnswer(mutated)) << bad;
    try {
      (void)ParseRequestFrame(mutated);
      ADD_FAILURE() << "parsed: " << bad;
    } catch (const util::HarnessError& e) {
      EXPECT_EQ(response.message, e.what());
    }
    EXPECT_EQ(service.Metrics().protocol_errors.load(), ++errors);
  }
  EXPECT_EQ(service.Metrics().raw_hits.load(), 0u);
}

TEST(RawIndexTest, EveryHeaderByteMutantAnswersAsOnTheParsePath) {
  const SchedulingRequest request = MakeRequest(1);
  SchedulingService service;
  MakeResident(service, request);
  const std::string frame = FrameOf(WithId(request, "m"));
  const std::size_t header_end = frame.find('\n');
  for (std::size_t at = 0; at <= header_end; ++at) {
    for (const char flip : {'\x01', '\x20'}) {
      std::string mutated = frame;
      mutated[at] = static_cast<char>(mutated[at] ^ flip);
      EXPECT_EQ(FormatResponseLine(service.SubmitFrame(mutated).get()),
                ColdAnswer(mutated))
          << "byte " << at;
    }
  }
  EXPECT_EQ(service.Metrics().raw_hits.load(), 0u);
}

TEST(RawIndexTest, DescriptionOnlyChangeFallsBackToACanonicalHitThenAttaches) {
  SchedulingRequest a = MakeRequest(2);
  a.scenario.description = "first provenance";
  SchedulingRequest b = a;
  b.scenario.description = "a second, longer provenance";
  SchedulingService service;
  MakeResident(service, a);
  const std::size_t bytes_with_a = service.Cache().CurrentBytes();
  ServiceMetrics& m = service.Metrics();

  const auto send = [&](const SchedulingRequest& request, const char* id) {
    const std::string frame = FrameOf(WithId(request, id));
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()),
              ColdAnswer(frame))
        << id;
  };
  send(b, "b1");  // canonical hit: b's payload replaces a's
  EXPECT_EQ(m.raw_hits.load(), 0u);
  EXPECT_EQ(m.response_hits.load(), 2u);
  EXPECT_EQ(m.response_misses.load(), 1u);
  const std::size_t payload_growth =
      fadesched::testing::FormatScenario(b.scenario).size() -
      fadesched::testing::FormatScenario(a.scenario).size();
  EXPECT_EQ(service.Cache().CurrentBytes(), bytes_with_a + payload_growth);
  send(b, "b2");  // raw hit
  EXPECT_EQ(m.raw_hits.load(), 1u);
  send(a, "a3");  // a's payload was replaced: canonical hit again
  EXPECT_EQ(m.raw_hits.load(), 1u);
  EXPECT_EQ(m.response_hits.load(), 4u);
  EXPECT_EQ(m.response_misses.load(), 1u);
}

TEST(RawIndexTest, DrainingGetsTheTypedDrainRejectionNotAHit) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  service.Drain();
  const SchedulingResponse response =
      service.SubmitFrame(FrameOf(WithId(request, "late"))).get();
  EXPECT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kInterrupted);
  EXPECT_EQ(response.id, "late");
  EXPECT_EQ(service.Metrics().rejected_draining.load(), 1u);
  EXPECT_EQ(service.Metrics().raw_hits.load(), 0u);
  EXPECT_EQ(service.Metrics().response_hits.load(), 1u);
}

/// Every STATS counter of `after` minus `before`.
std::vector<std::uint64_t> Delta(const StatsSnapshot& after,
                                 const StatsSnapshot& before) {
  const std::vector<std::uint64_t StatsSnapshot::*> fields = {
      &StatsSnapshot::submitted,        &StatsSnapshot::admitted,
      &StatsSnapshot::completed,        &StatsSnapshot::failed,
      &StatsSnapshot::timed_out,        &StatsSnapshot::shed,
      &StatsSnapshot::shed_overload,    &StatsSnapshot::shed_cold,
      &StatsSnapshot::rejected_draining, &StatsSnapshot::worker_restarts,
      &StatsSnapshot::response_hits,    &StatsSnapshot::response_misses,
      &StatsSnapshot::scenario_hits,    &StatsSnapshot::scenario_misses,
      &StatsSnapshot::queue_depth,      &StatsSnapshot::queue_delay_ewma_us};
  std::vector<std::uint64_t> delta;
  for (const auto field : fields) delta.push_back(after.*field - before.*field);
  return delta;
}

TEST(RawIndexTest, RawHitMovesStatsExactlyLikeACanonicalHit) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  ServiceMetrics& m = service.Metrics();
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "miss"))).get().Ok());

  const auto stamps = [&m] {
    return std::vector<std::uint64_t>{m.service_latency.Count(),
                                      m.total_latency.Count(),
                                      m.warm_total_latency.Count(),
                                      m.cold_total_latency.Count(),
                                      m.queue_latency.Count()};
  };
  const auto step = [&](const char* id) {
    const StatsSnapshot before = CaptureStats(m);
    const std::vector<std::uint64_t> histograms = stamps();
    EXPECT_TRUE(service.SubmitFrame(FrameOf(WithId(request, id))).get().Ok());
    std::vector<std::uint64_t> delta = Delta(CaptureStats(m), before);
    const std::vector<std::uint64_t> after = stamps();
    for (std::size_t i = 0; i < after.size(); ++i) {
      delta.push_back(after[i] - histograms[i]);
    }
    return delta;
  };
  const std::vector<std::uint64_t> canonical = step("canonical");
  ASSERT_EQ(m.raw_hits.load(), 0u);
  const std::vector<std::uint64_t> raw = step("raw");
  ASSERT_EQ(m.raw_hits.load(), 1u);
  EXPECT_EQ(raw, canonical);
}

TEST(RawIndexTest, FilledToCapacityNoRawEntryOutlivesItsResponse) {
  constexpr std::size_t kCapacity = 96u << 10;
  CacheOptions options;
  options.capacity_bytes = kCapacity;
  ServiceMetrics metrics;
  ScenarioCache cache(options, &metrics);

  struct Entry {
    Fingerprint fp;
    std::string payload;
    RawPayload Raw() const {
      return {PayloadKey(fp.scheduler, payload), fp.scheduler, payload};
    }
  };
  std::vector<Entry> entries;
  SchedulingResponse ok;
  ok.schedule = {0};
  for (std::uint64_t i = 0; i < 64; ++i) {
    const SchedulingRequest request = MakeRequest(i);
    entries.push_back({FingerprintRequest(request),
                       fadesched::testing::FormatScenario(request.scenario)});
    const Entry& entry = entries.back();
    const RawPayload raw = entry.Raw();
    cache.StoreResponse(entry.fp, ok);
    ASSERT_TRUE(cache.LookupResponse(entry.fp, nullptr, false, &raw));
    EXPECT_LE(cache.CurrentBytes(), kCapacity) << "after entry " << i;
    EXPECT_TRUE(cache.LookupRaw(raw, nullptr)) << "entry " << i;
  }
  ASSERT_GT(metrics.cache_evictions.load(), 0u) << "the budget never bound";

  std::size_t raw_resident = 0;
  for (const Entry& entry : entries) {
    // Probe the raw level first: a raw hit touches the node, so the
    // response probe that follows sees it still resident.
    const bool raw = cache.LookupRaw(entry.Raw(), nullptr);
    const bool response = cache.LookupResponse(entry.fp, nullptr, false);
    EXPECT_TRUE(!raw || response);
    raw_resident += raw ? 1 : 0;
  }
  EXPECT_GT(raw_resident, 0u);
  EXPECT_LT(raw_resident, entries.size());
  EXPECT_LE(cache.CurrentBytes(), kCapacity);
  cache.Clear();
  EXPECT_FALSE(cache.LookupRaw(entries.back().Raw(), nullptr));
}

TEST(RawIndexTest, ConcurrentFramesUnderEvictionMatchTheReference) {
  // Four submitters share a cache too small for the working set, so raw
  // hits, attaches and evictions interleave on the one mutex.
  constexpr int kScenarios = 12;
  std::vector<SchedulingRequest> requests;
  for (int i = 0; i < kScenarios; ++i) {
    requests.push_back(MakeRequest(static_cast<std::uint64_t>(i)));
  }
  SchedulingService reference;
  ServiceOptions options;
  options.cache.capacity_bytes = 48u << 10;
  SchedulingService service(options);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each scenario three times in a row: whatever else runs, the
      // third send finds its payload attached unless it was just evicted.
      for (int round = 0; round < 120; ++round) {
        const int i = (round / 3 * 5 + t) % kScenarios;
        const std::string frame = FrameOf(WithId(
            requests[i], "t" + std::to_string(t) + "-" + std::to_string(round)));
        const std::string want =
            FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame)));
        if (FormatResponseLine(service.SubmitFrame(frame).get()) != want) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_GT(service.Metrics().raw_hits.load(), 0u);
  EXPECT_GT(service.Metrics().cache_evictions.load(), 0u);
  EXPECT_LE(service.Cache().CurrentBytes(), options.cache.capacity_bytes);
}

}  // namespace
}  // namespace fadesched::service
