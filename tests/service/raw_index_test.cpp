// The cache's payload level, as SubmitFrame uses it: a frame whose
// payload bytes are resident is answered without a scenario parse, under
// any scheduler, and must be indistinguishable on the wire and in STATS
// from the parse path it skips.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
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
/// that gives its payload an entry of the payload level.
void MakeResident(SchedulingService& service, const SchedulingRequest& request) {
  const std::uint64_t raw_hits = service.Metrics().raw_hits.load();
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-1"))).get().Ok());
  ASSERT_TRUE(service.SubmitFrame(FrameOf(WithId(request, "prime-2"))).get().Ok());
  ASSERT_EQ(service.Metrics().raw_hits.load(), raw_hits);
}

/// A request's fingerprint and payload, for driving the cache directly.
struct Entry {
  Fingerprint fp;
  std::string payload;

  RawPayload Raw() const { return {WordHash64(payload), payload}; }
  /// The claim a genuine frame with header state `state` makes.
  RawCheck Check(std::uint64_t state) const {
    return {state, util::Fnv1a64(payload, state)};
  }
};

Entry EntryOf(const SchedulingRequest& request) {
  return {FingerprintRequest(request),
          fadesched::testing::FormatScenario(request.scenario)};
}

/// Requests for `count` fuzzer cases of `links` links each, so their
/// canonical blobs, scenario entries and response entries cost the same.
std::vector<SchedulingRequest> SizedRequests(std::size_t count,
                                             std::size_t links = 40) {
  fadesched::testing::FuzzerOptions sized;
  sized.min_links = sized.max_links = links;
  std::vector<SchedulingRequest> requests;
  for (std::uint64_t i = 0; i < count; ++i) {
    SchedulingRequest each = MakeRequest(0);
    each.scenario = fadesched::testing::ScenarioFuzzer(7, sized).Case(i);
    requests.push_back(each);
  }
  return requests;
}

/// A claim on a resident payload that is refused must leave the entry's
/// LRU position alone. The entry is put at the tail behind two equal
/// response entries, the claim is refused (by the entry's verified
/// claim when `memo_decides`, else by a full pass), and one more equal
/// response
/// fills the budget: the payload entry, not the response behind it, is
/// what goes.
void ExpectARefusedClaimLeavesTheTail(bool memo_decides) {
  const std::vector<SchedulingRequest> requests = SizedRequests(3);
  std::vector<Entry> entries;
  for (const SchedulingRequest& request : requests) {
    entries.push_back(EntryOf(request));
  }
  constexpr std::uint64_t kState = 0x5eed0042u;
  RawCheck tampered = entries[0].Check(kState);
  tampered.expected ^= 1;
  SchedulingResponse ok;
  ok.schedule = {0};
  const auto fill = [&](ScenarioCache& cache, const ServiceMetrics& metrics) {
    cache.StoreResponse(entries[0].fp, ok);
    cache.AttachPayload(entries[0].Raw(), entries[0].fp);
    if (memo_decides) {
      ASSERT_TRUE(cache.LookupPayload(entries[0].Raw(), "rle",
                                      entries[0].Check(kState)));
    }
    ASSERT_TRUE(cache.LookupResponse(entries[0].fp, nullptr));
    cache.StoreResponse(entries[1].fp, ok);  // LRU: r1, r0, payload 0
    const std::uint64_t passes = metrics.raw_check_passes.load();
    EXPECT_FALSE(cache.LookupPayload(entries[0].Raw(), "rle", tampered));
    EXPECT_EQ(metrics.raw_check_passes.load(), passes + (memo_decides ? 0 : 1));
  };
  CacheOptions options;
  {
    ServiceMetrics metrics;
    ScenarioCache probe({}, &metrics);
    fill(probe, metrics);
    options.capacity_bytes = probe.CurrentBytes();
  }
  ServiceMetrics metrics;
  ScenarioCache cache(options, &metrics);
  fill(cache, metrics);
  ASSERT_EQ(cache.CurrentBytes(), options.capacity_bytes);
  cache.StoreResponse(entries[2].fp, ok);
  EXPECT_EQ(metrics.cache_evictions.load(), 1u);
  EXPECT_TRUE(cache.IsWarm(entries[0].fp)) << "the refusal touched the entry";
  EXPECT_FALSE(cache.LookupPayload(entries[0].Raw(), "rle",
                                   entries[0].Check(kState)));
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

  // Nor does it refresh the entry's LRU position.
  ExpectARefusedClaimLeavesTheTail(/*memo_decides=*/false);
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
  ServiceMetrics& m = service.Metrics();

  const auto send = [&](const SchedulingRequest& request, const char* id) {
    const std::string frame = FrameOf(WithId(request, id));
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()),
              ColdAnswer(frame))
        << id;
  };
  send(a, "a1");  // miss
  const std::size_t bytes_before_a = service.Cache().CurrentBytes();
  send(a, "a2");  // canonical hit: a's payload gets an entry
  const std::size_t bytes_with_a = service.Cache().CurrentBytes();
  send(b, "b1");  // canonical hit: b's payload gets an entry of its own
  EXPECT_EQ(m.raw_hits.load(), 0u);
  EXPECT_EQ(m.response_hits.load(), 2u);
  EXPECT_EQ(m.response_misses.load(), 1u);
  const std::size_t payload_growth =
      fadesched::testing::FormatScenario(b.scenario).size() -
      fadesched::testing::FormatScenario(a.scenario).size();
  EXPECT_EQ(service.Cache().CurrentBytes() - bytes_with_a,
            bytes_with_a - bytes_before_a + payload_growth);
  send(b, "b2");  // raw hit
  EXPECT_EQ(m.raw_hits.load(), 1u);
  send(a, "a3");  // a's payload is still resident: a raw hit too
  EXPECT_EQ(m.raw_hits.load(), 2u);
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
  // The entry remembers only its last verified claim: every fresh id
  // pays one pass, repeating the last id pays none, and returning to an
  // earlier id pays one again. Every reply is still the parse path's.
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
  for (int i = 0; i < 300; ++i) {
    const std::string id = "f" + std::to_string(i);
    send(id);
    EXPECT_EQ(m.raw_check_passes.load(), static_cast<std::uint64_t>(i + 1))
        << id;
  }
  send("f299");
  EXPECT_EQ(m.raw_check_passes.load(), 300u);
  send("f0");
  EXPECT_EQ(m.raw_check_passes.load(), 301u);
  EXPECT_EQ(m.raw_hits.load(), 302u);
  EXPECT_EQ(m.checksum_failures.load(), 0u);
}

TEST(RawIndexTest, AFailedPassUnderANewStateKeepsTheVerifiedClaim) {
  // A tampered frame under another id fails its full pass; the genuine
  // frame's claim stays the entry's, so the genuine frame still takes no
  // pass.
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  ServiceMetrics& m = service.Metrics();
  const std::string genuine = FrameOf(WithId(request, "g"));
  ASSERT_TRUE(service.SubmitFrame(genuine).get().Ok());
  ASSERT_EQ(m.raw_check_passes.load(), 1u);

  const std::string tampered = WithFlippedCheck(FrameOf(WithId(request, "t")));
  ASSERT_NE(CheckState(tampered), CheckState(genuine));
  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(tampered).get()),
            ColdAnswer(tampered));
  EXPECT_EQ(m.raw_check_passes.load(), 2u);
  EXPECT_EQ(m.checksum_failures.load(), 1u);

  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(genuine).get()),
            ColdAnswer(genuine));
  EXPECT_EQ(m.raw_check_passes.load(), 2u) << "the failed pass replaced it";
  EXPECT_EQ(m.raw_hits.load(), 2u);
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
  // The entry's verified claim has the genuine frame's header state. A
  // tampered frame with the same state is decided by it (no full pass),
  // answered as on the parse path, and neither counts, touches the entry
  // nor charges a byte.
  const SchedulingRequest request = MakeRequest(0);
  SchedulingService service;
  MakeResident(service, request);
  const std::string genuine = FrameOf(WithId(request, "k"));
  ASSERT_TRUE(service.SubmitFrame(genuine).get().Ok());  // verifies it
  ServiceMetrics& m = service.Metrics();
  ASSERT_EQ(m.raw_hits.load(), 1u);
  ASSERT_EQ(m.raw_check_passes.load(), 1u);
  const std::size_t bytes = service.Cache().CurrentBytes();
  const StatsSnapshot before = CaptureStats(m);

  const std::string tampered = WithFlippedCheck(genuine);
  ASSERT_EQ(CheckState(tampered), CheckState(genuine));
  const SchedulingResponse response = service.SubmitFrame(tampered).get();
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(FormatResponseLine(response), ColdAnswer(tampered));
  EXPECT_EQ(m.checksum_failures.load(), 1u);
  EXPECT_EQ(m.raw_check_passes.load(), 1u) << "the verified claim did not decide";
  EXPECT_EQ(m.raw_hits.load(), 1u);
  const StatsSnapshot after = CaptureStats(m);
  EXPECT_EQ(after.response_hits, before.response_hits);
  EXPECT_EQ(after.scenario_hits, before.scenario_hits);
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(service.Cache().CurrentBytes(), bytes);

  ExpectARefusedClaimLeavesTheTail(/*memo_decides=*/true);
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
  // covers both. Once b's payload has its own entry, a frame with a's
  // header (and so a's check=) but b's payload bytes must fail: a's
  // verified pass says nothing about b's bytes, so b's entry takes its
  // own pass.
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
            ColdAnswer(frame_b));  // canonical hit: b gets an entry
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
  // Entry i's cost is what its response and payload entries add; a
  // verified payload hit adds nothing. Entry 0 is the largest, so a
  // fourth entry evicts its two nodes alone.
  CacheOptions unbounded;
  unbounded.capacity_bytes = std::size_t{1} << 40;
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < 4; ++i) {
    entries.push_back(EntryOf(SizedRequests(4, i == 0 ? 80 : 40)[i]));
  }
  SchedulingResponse ok;
  ok.schedule = {0};
  const auto add = [&ok](ScenarioCache& cache, const Entry& entry) {
    const std::uint64_t state = 0x5eed0000u + entry.payload.size();
    cache.StoreResponse(entry.fp, ok);
    cache.AttachPayload(entry.Raw(), entry.fp);
    const std::size_t attached = cache.CurrentBytes();
    ASSERT_TRUE(cache.LookupPayload(entry.Raw(), "rle", entry.Check(state)));
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
  EXPECT_EQ(metrics.cache_evictions.load(), 2u);
  EXPECT_EQ(cache.CurrentBytes(), cost[1] + cost[2] + cost[3]);
  EXPECT_FALSE(cache.LookupPayload(entries[0].Raw(), "rle",
                                   entries[0].Check(1)));
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

TEST(RawIndexTest, FilledToCapacityThePayloadLevelStaysWithinBudget) {
  constexpr std::size_t kCapacity = 96u << 10;
  CacheOptions options;
  options.capacity_bytes = kCapacity;
  ServiceMetrics metrics;
  ScenarioCache cache(options, &metrics);

  std::vector<Entry> entries;
  SchedulingResponse ok;
  ok.schedule = {0};
  for (std::uint64_t i = 0; i < 64; ++i) {
    entries.push_back(EntryOf(MakeRequest(i)));
    const Entry& entry = entries.back();
    cache.StoreResponse(entry.fp, ok);
    cache.AttachPayload(entry.Raw(), entry.fp);
    EXPECT_LE(cache.CurrentBytes(), kCapacity) << "after entry " << i;
    const std::optional<Fingerprint> fp =
        cache.LookupPayload(entry.Raw(), "rle", entry.Check(i));
    ASSERT_TRUE(fp) << "entry " << i;
    EXPECT_EQ(fp->request_hash, entry.fp.request_hash);
    EXPECT_EQ(fp->canonical_scenario, entry.fp.canonical_scenario);
  }
  ASSERT_GT(metrics.cache_evictions.load(), 0u) << "the budget never bound";

  std::size_t payloads_resident = 0;
  for (std::uint64_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    payloads_resident +=
        cache.LookupPayload(entry.Raw(), "rle", entry.Check(i)) ? 1 : 0;
  }
  EXPECT_GT(payloads_resident, 0u);
  EXPECT_LT(payloads_resident, entries.size());
  EXPECT_LE(cache.CurrentBytes(), kCapacity);
  cache.Clear();
  EXPECT_FALSE(cache.LookupPayload(entries.back().Raw(), "rle",
                                   entries.back().Check(63)));
}

TEST(RawIndexTest, AResidentPayloadUnderANewSchedulerSkipsTheParse) {
  // The paper's comparison: one topology under each scheduler. Once its
  // payload is resident, a new scheduler's frame is a scenario hit built
  // from no parse, and answers as HandleNow does.
  const SchedulingRequest request = MakeRequest(4);
  SchedulingService service;
  SchedulingService reference;
  MakeResident(service, request);
  ServiceMetrics& m = service.Metrics();
  for (const char* scheduler :
       {"ldp", "approx_logn", "approx_diversity", "fading_greedy"}) {
    SchedulingRequest other = WithId(request, std::string("n-") + scheduler);
    other.scheduler = scheduler;
    const std::string frame = FrameOf(other);
    const StatsSnapshot before = CaptureStats(m);
    const std::uint64_t raw_hits = m.raw_hits.load();
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()),
              FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame))))
        << scheduler;
    const StatsSnapshot after = CaptureStats(m);
    EXPECT_EQ(after.scenario_hits, before.scenario_hits + 1) << scheduler;
    EXPECT_EQ(after.scenario_misses, before.scenario_misses) << scheduler;
    EXPECT_EQ(after.response_misses, before.response_misses + 1) << scheduler;
    EXPECT_EQ(m.raw_hits.load(), raw_hits + 1) << scheduler << " was parsed";

    // Its repeat is a response hit, still without a parse.
    const std::string want =
        FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame)));
    EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()), want);
    EXPECT_EQ(m.raw_hits.load(), raw_hits + 2) << scheduler;
    EXPECT_EQ(CaptureStats(m).response_hits, after.response_hits + 1);
  }
  EXPECT_EQ(m.checksum_failures.load(), 0u);
}

TEST(RawIndexTest, TamperedCheckUnderANewSchedulerChargesNothing) {
  const SchedulingRequest request = MakeRequest(4);
  SchedulingService service;
  MakeResident(service, request);
  ServiceMetrics& m = service.Metrics();
  SchedulingRequest other = WithId(request, "t");
  other.scheduler = "ldp";
  const std::string tampered = WithFlippedCheck(FrameOf(other));
  const StatsSnapshot before = CaptureStats(m);
  const std::size_t bytes = service.Cache().CurrentBytes();
  const std::size_t entries = service.Cache().NumEntries();

  const SchedulingResponse response = service.SubmitFrame(tampered).get();
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(FormatResponseLine(response), ColdAnswer(tampered));
  try {
    (void)ParseRequestFrame(tampered);
    ADD_FAILURE() << "the tampered frame parsed";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(response.message, e.what());
  }
  EXPECT_EQ(Delta(CaptureStats(m), before),
            std::vector<std::uint64_t>(Delta(before, before).size(), 0u));
  EXPECT_EQ(m.checksum_failures.load(), 1u);
  EXPECT_EQ(m.raw_hits.load(), 0u);
  EXPECT_EQ(service.Cache().CurrentBytes(), bytes);
  EXPECT_EQ(service.Cache().NumEntries(), entries);
}

TEST(RawIndexTest, AnEvictedScenarioStillSchedulesFromThePin) {
  // At the cache: a scenario handed out by PeekScenario and evicted
  // before ObtainScenario goes back in as it is, counted as a hit. The
  // request carries no links, so a build would schedule nothing.
  const SchedulingRequest request = MakeRequest(5);
  const Fingerprint fp = FingerprintRequest(request);
  ServiceMetrics metrics;
  ScenarioCache cache({}, &metrics);
  const ScenarioCache::ScenarioPtr built = cache.ObtainScenario(fp, request);
  const ScenarioCache::ScenarioPtr pinned = cache.PeekScenario(fp);
  ASSERT_EQ(pinned, built);
  cache.Clear();
  ASSERT_EQ(cache.PeekScenario(fp), nullptr);
  bool hit = false;
  EXPECT_EQ(cache.ObtainScenario(fp, SchedulingRequest{}, &hit, pinned),
            pinned);
  EXPECT_TRUE(hit);
  EXPECT_EQ(metrics.scenario_hits.load(), 1u);
  EXPECT_EQ(metrics.scenario_misses.load(), 1u);
  EXPECT_EQ(cache.PeekScenario(fp), pinned);

  // Through the service: the one worker is busy with a large cold build
  // while a frame under a new scheduler is queued with its scenario
  // pinned; the cache is then cleared. The frame was never parsed, so
  // only the pin can schedule it.
  ServiceOptions options;
  options.batcher.num_workers = 1;
  SchedulingService service(options);
  SchedulingService reference;
  MakeResident(service, request);
  fadesched::testing::FuzzerOptions large;
  large.min_links = large.max_links = 1500;
  SchedulingRequest busy = WithId(request, "busy");
  busy.scenario = fadesched::testing::ScenarioFuzzer(7, large).Case(0);
  busy.scheduler = "fading_greedy";
  SchedulingRequest other = WithId(request, "pinned");
  other.scheduler = "approx_diversity";
  const std::string frame = FrameOf(other);
  const std::uint64_t misses = service.Metrics().scenario_misses.load();
  std::future<SchedulingResponse> first = service.SubmitFrame(FrameOf(busy));
  std::future<SchedulingResponse> second = service.SubmitFrame(frame);
  service.Cache().Clear();
  EXPECT_TRUE(first.get().Ok());
  EXPECT_EQ(FormatResponseLine(second.get()),
            FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame))));
  EXPECT_EQ(service.Metrics().raw_hits.load(), 1u);
  EXPECT_EQ(service.Metrics().scenario_misses.load(), misses + 1)
      << "only the busy frame builds";
}

TEST(RawIndexTest, APayloadWhoseFingerprintIsGoneFallsBackToTheParsePath) {
  // A budget that holds one resident topology (scenario, response and
  // payload entries) plus slack: one cold scenario after it evicts the
  // first one's scenario and response, which are older than its payload.
  const std::vector<SchedulingRequest> requests = SizedRequests(2);
  ServiceOptions options;
  {
    SchedulingService probe;
    MakeResident(probe, requests[0]);
    options.cache.capacity_bytes = probe.Cache().CurrentBytes() + 512;
  }
  SchedulingService service(options);
  MakeResident(service, requests[0]);
  ASSERT_TRUE(
      service.SubmitFrame(FrameOf(WithId(requests[1], "x"))).get().Ok());
  ServiceMetrics& m = service.Metrics();
  ASSERT_EQ(m.cache_evictions.load(), 2u);
  const Entry first = EntryOf(requests[0]);
  ASSERT_FALSE(service.Cache().IsWarm(first.fp));

  const std::string frame = FrameOf(WithId(requests[0], "back"));
  const std::uint64_t misses = m.scenario_misses.load();
  EXPECT_EQ(FormatResponseLine(service.SubmitFrame(frame).get()),
            ColdAnswer(frame));
  EXPECT_EQ(m.raw_hits.load(), 0u);
  EXPECT_EQ(m.raw_check_passes.load(), 1u) << "the payload was not probed";
  EXPECT_EQ(m.scenario_misses.load(), misses + 1);
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
