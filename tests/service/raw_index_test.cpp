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
#include "util/fnv.hpp"

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
  const std::uint64_t raw_hits = service.Metrics().raw_hits.load();
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-1"))).get().Ok());
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-2"))).get().Ok());
  ASSERT_EQ(service.Metrics().raw_hits.load(), raw_hits);
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

/// The FNV state of the frame's header, which a raw hit's check= is
/// verified from.
std::uint64_t CheckState(const std::string& frame) {
  return *ParseRequestHeader(frame).check_state;
}

/// `frame` with one hex digit of its check= value flipped.
std::string WithFlippedCheck(std::string frame) {
  const std::size_t digit = frame.find(" check=") + 7;
  frame[digit] = frame[digit] == '0' ? '1' : '0';
  return frame;
}

TEST(RawIndexTest, EachNewHeaderStateTakesOneFullCheckPass) {
  // Only the last verified header state is remembered: fresh ids each
  // pay a pass, the last one repeated pays none, an earlier one pays
  // again. Every reply is still the parse path's.
  const SchedulingRequest request = MakeRequest(3);
  SchedulingService service;
  SchedulingService reference;
  MakeResident(service, request);
  const auto send = [&](const std::string& id) {
    const std::string frame = FrameOf(WithId(request, id));
    ASSERT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()),
              FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame))))
        << id;
  };
  const ServiceMetrics& m = service.Metrics();
  for (int i = 0; i < 20; ++i) send("f" + std::to_string(i));
  EXPECT_EQ(m.raw_check_passes.load(), 20u);
  send("f19");
  EXPECT_EQ(m.raw_check_passes.load(), 20u);
  send("f0");
  EXPECT_EQ(m.raw_check_passes.load(), 21u);
  EXPECT_EQ(m.raw_hits.load(), 22u);
  EXPECT_EQ(m.checksum_failures.load(), 0u);
}

TEST(RawIndexTest, ARepeatedFrameTakesOneFullCheckPass) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  const std::string frame = FrameOf(WithId(request, "same"));
  const std::string want = ColdAnswer(frame);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()), want);
  }
  EXPECT_EQ(service.Metrics().raw_hits.load(), 50u);
  EXPECT_EQ(service.Metrics().raw_check_passes.load(), 1u);
}

TEST(RawIndexTest, TamperedCheckOnAVerifiedEntryChangesNothing) {
  // Three equal-sized scenarios fill a cache to capacity; the oldest has
  // a verified pass. A tampered frame for it, with the same header state,
  // is decided by the compare (no full pass), answered as on the parse
  // path, and neither touches the entry nor charges a byte: one more
  // insert still evicts it first.
  fadesched::testing::FuzzerOptions sized;
  sized.min_links = sized.max_links = 40;
  std::vector<SchedulingRequest> fill;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SchedulingRequest each = MakeRequest(0);
    each.scenario = fadesched::testing::ScenarioFuzzer(7, sized).Case(i);
    fill.push_back(each);
  }
  const std::string genuine = FrameOf(WithId(fill[0], "k"));
  const auto warm = [&](SchedulingService& service) {
    MakeResident(service, fill[0]);
    ASSERT_TRUE(service.SubmitFrame(genuine).get().Ok());  // verifies it
    for (std::size_t i = 1; i < 3; ++i) MakeResident(service, fill[i]);
  };
  ServiceOptions options;
  {
    SchedulingService probe;
    warm(probe);
    options.cache.capacity_bytes = probe.Cache().CurrentBytes();
  }
  SchedulingService service(options);
  warm(service);
  ServiceMetrics& m = service.Metrics();
  ASSERT_EQ(m.raw_hits.load(), 1u);
  ASSERT_EQ(m.raw_check_passes.load(), 1u);
  ASSERT_EQ(m.cache_evictions.load(), 0u);
  const std::size_t bytes = service.Cache().CurrentBytes();
  const std::uint64_t hits = m.response_hits.load();

  const std::string tampered = WithFlippedCheck(genuine);
  ASSERT_EQ(CheckState(tampered), CheckState(genuine));
  const SchedulingResponse response = service.SubmitFrame(tampered).get();
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(FormatResponseLine(response), ColdAnswer(tampered));
  EXPECT_EQ(m.checksum_failures.load(), 1u);
  EXPECT_EQ(m.raw_check_passes.load(), 1u) << "the compare did not decide";
  EXPECT_EQ(m.raw_hits.load(), 1u);
  EXPECT_EQ(m.response_hits.load(), hits);
  EXPECT_EQ(service.Cache().CurrentBytes(), bytes);

  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(fill[3], "n"))).get().Ok());
  ASSERT_GT(m.cache_evictions.load(), 0u);
  const auto resident = [&service](const SchedulingRequest& each) {
    const std::string payload =
        fadesched::testing::FormatScenario(each.scenario);
    return service.Cache().LookupRaw(
        {PayloadKey(each.scheduler, payload), each.scheduler, payload},
        nullptr);
  };
  EXPECT_FALSE(resident(fill[0])) << "the tampered frame refreshed its entry";
  EXPECT_TRUE(resident(fill[1]));
}

TEST(RawIndexTest, OnlyAFullPassThatMatchedIsRemembered) {
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  ServiceMetrics& m = service.Metrics();
  const std::size_t bytes = service.Cache().CurrentBytes();

  // Tampered first: its full pass fails and leaves nothing behind, so
  // the tampered frame takes a pass again.
  const std::string genuine = FrameOf(WithId(request, "g"));
  const std::string tampered = WithFlippedCheck(genuine);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(tampered).get()),
              ColdAnswer(tampered));
  }
  EXPECT_EQ(m.raw_check_passes.load(), 2u);
  EXPECT_EQ(m.checksum_failures.load(), 2u);
  EXPECT_EQ(m.raw_hits.load(), 0u);

  // The genuine frame's pass is remembered; the tampered frame is then
  // refused without one. Neither charges a byte.
  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(genuine).get()),
            ColdAnswer(genuine));
  EXPECT_EQ(m.raw_check_passes.load(), 3u);
  EXPECT_EQ(service.SubmitFrame(tampered).get().error_kind,
            util::ErrorKind::kTransient);
  EXPECT_EQ(m.raw_check_passes.load(), 3u);
  EXPECT_EQ(m.checksum_failures.load(), 3u);
  EXPECT_EQ(m.raw_hits.load(), 1u);
  EXPECT_EQ(service.Cache().CurrentBytes(), bytes);
}

TEST(RawIndexTest, ReattachingAVariantForgetsTheVerifiedPass) {
  // a and b differ only in the description line, so one header state
  // covers both. After b replaces a, a frame with a's header (and so a's
  // check=) but b's payload bytes must fail: a's verified pass says
  // nothing about b's bytes.
  SchedulingRequest a = MakeRequest(2);
  a.scenario.description = "first provenance";
  SchedulingRequest b = a;
  b.scenario.description = "a second, longer provenance";
  SchedulingService service;
  MakeResident(service, a);
  ServiceMetrics& m = service.Metrics();
  const std::string frame_a = FrameOf(WithId(a, "x"));
  const std::string frame_b = FrameOf(WithId(b, "x"));
  ASSERT_EQ(CheckState(frame_a), CheckState(frame_b));

  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame_a).get()),
            ColdAnswer(frame_a));  // raw hit: a's pass is remembered
  EXPECT_EQ(m.raw_check_passes.load(), 1u);
  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame_b).get()),
            ColdAnswer(frame_b));  // canonical hit: b replaces a
  EXPECT_EQ(m.raw_hits.load(), 1u);

  const std::string spliced =
      frame_a.substr(0, frame_a.find('\n') + 1) +
      frame_b.substr(frame_b.find('\n') + 1);
  const SchedulingResponse response = service.SubmitFrame(spliced).get();
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(FormatResponseLine(response), ColdAnswer(spliced));
  EXPECT_EQ(m.raw_check_passes.load(), 2u);
  EXPECT_EQ(m.checksum_failures.load(), 1u);
  EXPECT_EQ(m.raw_hits.load(), 1u);
}

TEST(RawIndexTest, AVerifiedRawHitChargesNothingAndEvictionReturnsAll) {
  // Entry i's cost is what its store and attach add; a verified raw hit
  // adds nothing. Entry 0 is the largest, so a fourth entry evicts it
  // alone.
  CacheOptions unbounded;
  unbounded.capacity_bytes = std::size_t{1} << 40;
  fadesched::testing::FuzzerOptions sized;
  struct Entry {
    Fingerprint fp;
    std::string payload;
    RawPayload Raw() const {
      return {PayloadKey(fp.scheduler, payload), fp.scheduler, payload};
    }
  };
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < 4; ++i) {
    sized.min_links = sized.max_links = i == 0 ? 80 : 40;
    SchedulingRequest request = MakeRequest(0);
    request.scenario = fadesched::testing::ScenarioFuzzer(7, sized).Case(i);
    entries.push_back({FingerprintRequest(request),
                       fadesched::testing::FormatScenario(request.scenario)});
  }
  SchedulingResponse ok;
  ok.schedule = {0};
  const auto add = [&ok](ScenarioCache& cache, const Entry& entry) {
    const RawPayload raw = entry.Raw();
    const std::uint64_t state = 0x5eed0000u + entry.payload.size();
    cache.StoreResponse(entry.fp, ok);
    ASSERT_TRUE(cache.LookupResponse(entry.fp, nullptr, false, &raw));
    const std::size_t attached = cache.CurrentBytes();
    ASSERT_TRUE(cache.LookupRaw(
        raw, nullptr, RawCheck{state, util::Fnv1a64(entry.payload, state)}));
    ASSERT_EQ(cache.CurrentBytes(), attached);
  };
  std::vector<std::size_t> cost;
  {
    ScenarioCache probe(unbounded);
    for (const Entry& entry : entries) {
      const std::size_t before = probe.CurrentBytes();
      add(probe, entry);
      cost.push_back(probe.CurrentBytes() - before);
    }
  }
  ASSERT_GT(cost[0], cost[3]);

  CacheOptions options;
  options.capacity_bytes = cost[0] + cost[1] + cost[2];
  ServiceMetrics metrics;
  ScenarioCache cache(options, &metrics);
  for (std::size_t i = 0; i < 3; ++i) add(cache, entries[i]);
  ASSERT_EQ(cache.CurrentBytes(), options.capacity_bytes);
  add(cache, entries[3]);
  EXPECT_EQ(metrics.cache_evictions.load(), 1u);
  EXPECT_EQ(cache.CurrentBytes(), cost[1] + cost[2] + cost[3]);
  EXPECT_FALSE(cache.LookupRaw(entries[0].Raw(), nullptr));
  EXPECT_EQ(metrics.raw_check_passes.load(), 4u);
  cache.Clear();
  EXPECT_EQ(cache.CurrentBytes(), 0u);
  EXPECT_EQ(cache.NumEntries(), 0u);
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
