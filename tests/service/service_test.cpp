#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "service/protocol.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest(std::uint64_t case_index,
                              const std::string& scheduler = "rle") {
  fadesched::testing::ScenarioFuzzer fuzzer(7);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = scheduler;
  request.id = "c" + std::to_string(case_index);
  return request;
}

TEST(SchedulingServiceTest, ServesAScheduleMatchingTheDirectScheduler) {
  SchedulingService service;
  const SchedulingRequest request = MakeRequest(0);
  const SchedulingResponse response = service.HandleNow(request);
  ASSERT_TRUE(response.Ok()) << response.message;

  const sched::SchedulerPtr direct = sched::MakeScheduler("rle");
  const sched::ScheduleResult expected =
      direct->Schedule(request.scenario.links, request.scenario.params);
  EXPECT_EQ(response.schedule, expected.schedule);
  EXPECT_DOUBLE_EQ(response.claimed_rate, expected.claimed_rate);
}

TEST(SchedulingServiceTest, CacheHitIsByteIdenticalToTheMiss) {
  SchedulingService service;
  const SchedulingRequest request = MakeRequest(0);
  const SchedulingResponse cold = service.HandleNow(request);
  const SchedulingResponse warm = service.HandleNow(request);
  ASSERT_TRUE(cold.Ok());
  ASSERT_TRUE(warm.Ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // The wire bytes are what the determinism contract covers — cache_hit
  // is diagnostics and deliberately not serialized.
  EXPECT_EQ(FormatResponseLine(cold), FormatResponseLine(warm));
  EXPECT_EQ(service.Metrics().response_hits.load(), 1u);
}

TEST(SchedulingServiceTest, UnknownSchedulerIsAnErrorResponse) {
  SchedulingService service;
  SchedulingRequest request = MakeRequest(0);
  request.scheduler = "no_such_algorithm";
  const SchedulingResponse response = service.HandleNow(request);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(response.message.find("no_such_algorithm"), std::string::npos);
}

TEST(SchedulingServiceTest, OversizedExactInstanceFailsGracefully) {
  SchedulingService service;
  // exact_brute_force caps its instance size; a larger request must come
  // back as a classified error response, not an exception.
  fadesched::testing::FuzzerOptions fuzz;
  fuzz.min_links = 40;
  fuzz.max_links = 40;
  fadesched::testing::ScenarioFuzzer fuzzer(11, fuzz);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "exact_brute_force";
  request.id = "big";
  const SchedulingResponse response = service.HandleNow(request);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_FALSE(response.message.empty());
}

TEST(SchedulingServiceTest, DifferentSchedulersShareTheScenarioEntry) {
  SchedulingService service;
  const SchedulingRequest rle = MakeRequest(0, "rle");
  const SchedulingRequest greedy = MakeRequest(0, "fading_greedy");
  ASSERT_TRUE(service.HandleNow(rle).Ok());
  ASSERT_TRUE(service.HandleNow(greedy).Ok());
  // One scenario build, two response entries.
  EXPECT_EQ(service.Metrics().scenario_misses.load(), 1u);
  EXPECT_EQ(service.Metrics().scenario_hits.load(), 1u);
  EXPECT_EQ(service.Metrics().response_misses.load(), 2u);
}

TEST(SchedulingServiceTest, BatchedPathMatchesDirectPath) {
  SchedulingService service;
  const SchedulingRequest request = MakeRequest(2);
  const SchedulingResponse direct = service.HandleNow(request);
  const SchedulingResponse batched = service.Submit(request).get();
  ASSERT_TRUE(direct.Ok());
  ASSERT_TRUE(batched.Ok());
  EXPECT_EQ(FormatResponseLine(direct), FormatResponseLine(batched));
  service.Drain();
}

TEST(SchedulingServiceTest, ConcurrentIdenticalRequestsAgreeByteForByte) {
  ServiceOptions options;
  options.batcher.num_workers = 4;
  SchedulingService service(options);
  constexpr std::size_t kPool = 4;
  constexpr std::size_t kRequests = 64;
  std::vector<std::future<SchedulingResponse>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    SchedulingRequest request = MakeRequest(i % kPool);
    request.id = "p" + std::to_string(i % kPool);
    futures.push_back(service.Submit(std::move(request)));
  }
  std::vector<std::string> first(kPool);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const SchedulingResponse response = futures[i].get();
    ASSERT_TRUE(response.Ok()) << response.message;
    const std::string line = FormatResponseLine(response);
    std::string& expected = first[i % kPool];
    if (expected.empty()) {
      expected = line;
    } else {
      EXPECT_EQ(expected, line);
    }
  }
  service.Drain();
}

TEST(SchedulingServiceTest, ResponseCacheHitIsServedInlineAlreadyFulfilled) {
  SchedulingService service;
  const SchedulingRequest request = MakeRequest(0);
  // Populate the response cache.
  ASSERT_TRUE(service.Submit(request).get().Ok());

  const auto submitted_before = service.Metrics().submitted.load();
  std::future<SchedulingResponse> warm = service.Submit(request);
  // The fast path fulfills the future on the calling thread — it must be
  // ready the instant Submit returns, without a worker ever touching it.
  ASSERT_EQ(warm.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const SchedulingResponse response = warm.get();
  ASSERT_TRUE(response.Ok()) << response.message;
  EXPECT_TRUE(response.cache_hit);
  EXPECT_EQ(response.id, request.id);
  // The inline path still keeps the admission ledger consistent.
  EXPECT_EQ(service.Metrics().submitted.load(), submitted_before + 1);
  EXPECT_EQ(service.Metrics().completed.load(),
            service.Metrics().admitted.load());
  service.Drain();
}

TEST(SchedulingServiceTest, DrainClosesTheInlineFastPathToo) {
  SchedulingService service;
  const SchedulingRequest request = MakeRequest(0);
  ASSERT_TRUE(service.Submit(request).get().Ok());
  service.Drain();
  // A cached response must not be a backdoor around drain: the rejection
  // comes from the batcher with the canonical typed kind.
  const SchedulingResponse rejected = service.Submit(request).get();
  EXPECT_EQ(rejected.status, ResponseStatus::kShed);
  EXPECT_EQ(rejected.error_kind, util::ErrorKind::kInterrupted);
}

/// A request frame as the front-ends hand it over: END line stripped.
std::string FrameOf(const SchedulingRequest& request) {
  const std::string frame = FormatRequestFrame(request);
  return frame.substr(0, frame.size() - 4);
}

TEST(SubmitFrameTest, ValidFrameAnswersLikeHandleNow) {
  const SchedulingRequest request = MakeRequest(0);
  const std::string frame = FrameOf(request);
  SchedulingService service;
  const std::string line =
      FormatResponseLine(service.SubmitFrame(frame).get());
  SchedulingService reference;
  EXPECT_EQ(line,
            FormatResponseLine(reference.HandleNow(ParseRequestFrame(frame))));
  EXPECT_EQ(service.Metrics().submitted.load(), 1u);
  EXPECT_EQ(service.Metrics().checksum_failures.load(), 0u);
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 0u);
}

TEST(SubmitFrameTest, TamperedCheckIsATransientChecksumFailure) {
  std::string frame = FrameOf(MakeRequest(0));
  const std::size_t digit = frame.find(" check=") + 7;
  ASSERT_LT(digit, frame.size());
  frame[digit] = frame[digit] == '0' ? '1' : '0';
  SchedulingService service;
  std::future<SchedulingResponse> future = service.SubmitFrame(frame);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const SchedulingResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(response.id, "-");
  EXPECT_EQ(service.Metrics().checksum_failures.load(), 1u);
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 0u);
  EXPECT_EQ(service.Metrics().submitted.load(), 0u);
}

// About 317 years: past the steady clock's range, so the admission
// deadline saturates to "never" rather than overflowing into the past.
TEST(SubmitFrameTest, AGenerousDeadlineIsServedNotTimedOut) {
  SchedulingRequest request = MakeRequest(0);
  request.deadline_seconds = 1e10;
  SchedulingService service;
  const SchedulingResponse response =
      service.SubmitFrame(FrameOf(request)).get();
  EXPECT_TRUE(response.Ok()) << response.message;
  EXPECT_EQ(service.Metrics().timed_out.load(), 0u);
}

TEST(SubmitFrameTest, GarbageIsAFatalProtocolError) {
  SchedulingService service;
  std::future<SchedulingResponse> future =
      service.SubmitFrame("this is not a request\n");
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const SchedulingResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal);
  EXPECT_EQ(response.id, "-");
  EXPECT_NE(response.message.find("request frame line 1"), std::string::npos)
      << response.message;
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 1u);
  EXPECT_EQ(service.Metrics().checksum_failures.load(), 0u);
  EXPECT_EQ(service.Metrics().submitted.load(), 0u);
}

// A check that fails while a frame decodes is served as its expression and
// message only: the reply names no source file and no line, so it does not
// leak the server's source tree or move when that file is edited.
TEST(SubmitFrameTest, ABadLinkRowsReplyNamesNoSourceLocation) {
  std::string frame = FrameOf(MakeRequest(0));
  const std::size_t row = frame.find("\n", frame.find("sx,sy,rx,ry,rate")) + 1;
  ASSERT_NE(row, std::string::npos);
  frame.replace(row, frame.find(',', row) - row, "bad");
  SchedulingService service;
  const SchedulingResponse response = service.SubmitFrame(frame).get();
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal);
  const std::string line = FormatResponseLine(response);
  const std::string msg = line.substr(line.find(" msg="));
  EXPECT_NE(msg.find("check failed"), std::string::npos) << line;
  EXPECT_EQ(msg.find('/'), std::string::npos) << line;
  EXPECT_EQ(msg.find(".cpp"), std::string::npos) << line;
  for (std::size_t colon = msg.find(':'); colon != std::string::npos;
       colon = msg.find(':', colon + 1)) {
    EXPECT_FALSE(colon + 1 < msg.size() &&
                 std::isdigit(static_cast<unsigned char>(msg[colon + 1])))
        << "a :<line> in " << line;
  }
}

TEST(SchedulingServiceTest, EmptyLinkSetIsServed) {
  SchedulingService service;
  SchedulingRequest request;
  request.scheduler = "rle";
  request.scenario.params.Validate();
  const SchedulingResponse response = service.HandleNow(request);
  ASSERT_TRUE(response.Ok()) << response.message;
  EXPECT_TRUE(response.schedule.empty());
}

// The server serves kTables; kCalculator is the reference. A served
// request must get the same reply bytes from both, for all five
// schedulers: on six fuzzer cases, and on a sender sitting on another
// link's receiver, which has no defined factor for that pair. That layout
// runs in both link orders: in the second, fading_greedy queries the
// coincident pair and both backends must raise the same error.
TEST(SchedulingServiceTest, SenderOnAReceiverGetsTheSameReplyOnEveryBackend) {
  const char* const kSchedulers[] = {"rle", "ldp", "approx_logn",
                                     "approx_diversity", "fading_greedy"};
  std::vector<SchedulingRequest> inputs;
  for (std::uint64_t index = 0; index < 6; ++index) {
    inputs.push_back(MakeRequest(index));
  }
  const net::Link first{{0.0, 0.0}, {10.0, 0.0}};
  const net::Link on_first{{10.0, 0.0}, {20.0, 0.0}};  // sender on r_first
  const net::Link far{{100.0, 0.0}, {110.0, 0.0}};
  for (const bool swapped : {false, true}) {
    SchedulingRequest request;
    request.scenario.params.Validate();
    request.scenario.links.Add(swapped ? on_first : first);
    request.scenario.links.Add(swapped ? first : on_first);
    request.scenario.links.Add(far);
    request.id = swapped ? "swapped" : "coincident";
    inputs.push_back(request);
  }

  ServiceOptions calculator_options;
  calculator_options.cache.engine.backend = channel::FactorBackend::kCalculator;
  SchedulingService calculator(calculator_options);
  SchedulingService tables;
  std::size_t ok = 0;
  for (SchedulingRequest& request : inputs) {
    for (const char* scheduler : kSchedulers) {
      request.scheduler = scheduler;
      const SchedulingResponse want = calculator.HandleNow(request);
      EXPECT_EQ(FormatResponseLine(tables.HandleNow(request)),
                FormatResponseLine(want))
          << "input=" << request.id << " scheduler=" << scheduler;
      ok += want.Ok() ? 1 : 0;
    }
  }
  EXPECT_GT(ok, 0u);
  // Each service built every input's engine on its own backend.
  EXPECT_EQ(calculator.Metrics().scenario_misses.load(), inputs.size());
  EXPECT_EQ(tables.Metrics().scenario_misses.load(), inputs.size());
}

}  // namespace
}  // namespace fadesched::service
