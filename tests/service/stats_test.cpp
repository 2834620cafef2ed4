// The STATS verb: wire round-trip of the counter snapshot, and the
// snapshot-consistency contract over a real loopback server — counters
// are monotone across successive snapshots, and at quiescence the
// admission identities hold:
//
//   submitted == admitted + shed + shed_overload + rejected_draining
//   admitted  == completed + failed + timed_out
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_stats_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

SchedulingRequest MakeRequest(std::uint64_t case_index,
                              const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(11);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

StatsSnapshot DistinctSnapshot() {
  StatsSnapshot s;
  s.submitted = 101;
  s.admitted = 90;
  s.completed = 80;
  s.failed = 6;
  s.timed_out = 4;
  s.shed = 7;
  s.shed_overload = 3;
  s.shed_cold = 9;
  s.rejected_draining = 1;
  s.worker_restarts = 12;
  s.response_hits = 30;
  s.response_misses = 10;
  s.scenario_hits = 21;
  s.scenario_misses = 8;
  s.queue_depth = 13;
  s.queue_delay_ewma_us = 12345;
  return s;
}

TEST(StatsProtocolTest, FormatParseRoundTripsEveryField) {
  const StatsSnapshot in = DistinctSnapshot();
  const StatsSnapshot out = ParseStatsLine(FormatStatsLine(in));
  EXPECT_EQ(out.submitted, in.submitted);
  EXPECT_EQ(out.admitted, in.admitted);
  EXPECT_EQ(out.completed, in.completed);
  EXPECT_EQ(out.failed, in.failed);
  EXPECT_EQ(out.timed_out, in.timed_out);
  EXPECT_EQ(out.shed, in.shed);
  EXPECT_EQ(out.shed_overload, in.shed_overload);
  EXPECT_EQ(out.shed_cold, in.shed_cold);
  EXPECT_EQ(out.rejected_draining, in.rejected_draining);
  EXPECT_EQ(out.worker_restarts, in.worker_restarts);
  EXPECT_EQ(out.response_hits, in.response_hits);
  EXPECT_EQ(out.response_misses, in.response_misses);
  EXPECT_EQ(out.scenario_hits, in.scenario_hits);
  EXPECT_EQ(out.scenario_misses, in.scenario_misses);
  EXPECT_EQ(out.queue_depth, in.queue_depth);
  EXPECT_EQ(out.queue_delay_ewma_us, in.queue_delay_ewma_us);
  EXPECT_EQ(out.Sheds(), in.shed + in.shed_overload);
}

// ParseStatsLine skips keys it does not know, so a client reads the STATS
// line of a worker from an earlier build. This one still carries the
// retired brownout_* fields, in that build's wire order.
TEST(StatsProtocolTest, ParseSkipsTheFieldsOfAnEarlierBuild) {
  const std::string body =
      "STATS submitted=101 admitted=90 completed=80 failed=6 timed_out=4 "
      "shed=7 shed_overload=3 shed_cold=9 rejected_draining=1 "
      "brownout_entries=2 brownout_builds=5 worker_restarts=12 "
      "response_hits=30 response_misses=10 scenario_hits=21 "
      "scenario_misses=8 queue_depth=13 queue_delay_ewma_us=12345 "
      "brownout_active=1";
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  const std::string line = "STATS sum=" + std::string(sum) + body.substr(5);
  EXPECT_EQ(FormatStatsLine(ParseStatsLine(line)),
            FormatStatsLine(DistinctSnapshot()));
}

TEST(StatsProtocolTest, WarmHitRateDerivesFromResponseCacheCounters) {
  StatsSnapshot s;
  EXPECT_EQ(s.WarmHitRate(), 0.0);  // no lookups yet — not NaN
  s.response_hits = 3;
  s.response_misses = 1;
  EXPECT_DOUBLE_EQ(s.WarmHitRate(), 0.75);
}

TEST(StatsProtocolTest, AccumulateSumsEveryFieldIncludingGauges) {
  StatsSnapshot total;
  const StatsSnapshot one = DistinctSnapshot();
  AccumulateStats(total, one);
  AccumulateStats(total, one);
  // Accumulating the same snapshot twice doubles every field; checking
  // through the wire round-trip covers the full field table at once.
  const StatsSnapshot out = ParseStatsLine(FormatStatsLine(total));
  EXPECT_EQ(out.submitted, 2 * one.submitted);
  EXPECT_EQ(out.worker_restarts, 2 * one.worker_restarts);
  EXPECT_EQ(out.response_hits, 2 * one.response_hits);
  EXPECT_EQ(out.scenario_misses, 2 * one.scenario_misses);
  EXPECT_EQ(out.queue_depth, 2 * one.queue_depth);  // gauges sum too
  EXPECT_EQ(out.queue_delay_ewma_us, 2 * one.queue_delay_ewma_us);
}

TEST(StatsProtocolTest, ToJsonCarriesEveryWireFieldAndWarmHitRate) {
  StatsSnapshot s = DistinctSnapshot();
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"submitted\": 101"), std::string::npos) << json;
  EXPECT_NE(json.find("\"response_hits\": 30"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warm_hit_rate\": 0.750000"), std::string::npos)
      << json;
}

TEST(StatsProtocolTest, TamperedPayloadIsTransient) {
  std::string line = FormatStatsLine(DistinctSnapshot());
  const std::size_t pos = line.find("submitted=101");
  ASSERT_NE(pos, std::string::npos);
  line[pos + std::string("submitted=").size()] = '9';
  try {
    ParseStatsLine(line);
    FAIL() << "tampered line parsed";
  } catch (const util::HarnessError& error) {
    EXPECT_EQ(error.kind(), util::ErrorKind::kTransient) << error.what();
  }
}

TEST(StatsProtocolTest, WrongVerbIsFatal) {
  SchedulingResponse response;
  response.status = ResponseStatus::kOk;
  response.id = "x";
  try {
    ParseStatsLine(FormatResponseLine(response));
    FAIL() << "response line accepted as STATS";
  } catch (const util::HarnessError& error) {
    EXPECT_EQ(error.kind(), util::ErrorKind::kFatal) << error.what();
  }
}

TEST(StatsProtocolTest, CaptureReadsServiceMetrics) {
  ServiceMetrics metrics;
  metrics.submitted.store(42);
  metrics.shed_overload.store(7);
  metrics.worker_restarts.store(3);
  const StatsSnapshot s = CaptureStats(metrics);
  EXPECT_EQ(s.submitted, 42u);
  EXPECT_EQ(s.shed_overload, 7u);
  EXPECT_EQ(s.worker_restarts, 3u);
  EXPECT_EQ(s.completed, 0u);
}

class StatsLoopbackTest : public ::testing::Test {
 protected:
  void StartServer(const char* tag) {
    options_.unix_socket_path = UniqueSocketPath(tag);
    options_.service.batcher.num_workers = 2;
    server_ = std::make_unique<Server>(options_);
    server_->Start();
    serving_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      serving_.join();
    }
  }

  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread serving_;
};

/// Monotone counters of the snapshot — everything except the trailing
/// gauges (queue_depth, queue_delay_ewma_us).
std::vector<std::uint64_t> MonotoneCounters(const StatsSnapshot& s) {
  return {s.submitted,     s.admitted,          s.completed,
          s.failed,        s.timed_out,         s.shed,
          s.shed_overload, s.shed_cold,         s.rejected_draining,
          s.worker_restarts};
}

void ExpectAdmissionIdentity(const StatsSnapshot& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.Sheds() + s.rejected_draining);
  EXPECT_EQ(s.admitted, s.completed + s.failed + s.timed_out);
}

TEST_F(StatsLoopbackTest, SnapshotsAreMonotoneAndConsistent) {
  StartServer("mono");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);

  // STATS on a fresh worker: all zeros, identities trivially hold.
  StatsSnapshot prev = client.Stats();
  ExpectAdmissionIdentity(prev);
  EXPECT_EQ(prev.submitted, 0u);

  for (int round = 0; round < 4; ++round) {
    for (int r = 0; r < 5; ++r) {
      const SchedulingResponse response = client.Call(
          MakeRequest(static_cast<std::uint64_t>(r),
                      "m" + std::to_string(round) + "_" + std::to_string(r)));
      EXPECT_TRUE(response.Ok()) << response.message;
    }
    // One in-flight request per connection and the response already
    // arrived, so the worker is quiescent: the identities must be exact,
    // not merely eventually consistent.
    const StatsSnapshot snap = client.Stats();
    ExpectAdmissionIdentity(snap);
    const auto before = MonotoneCounters(prev);
    const auto after = MonotoneCounters(snap);
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_GE(after[i], before[i]) << "counter " << i << " went backwards";
    }
    prev = snap;
  }
  EXPECT_EQ(prev.submitted, 20u);
  EXPECT_EQ(prev.completed, 20u);
}

TEST_F(StatsLoopbackTest, StatsInsideAFrameIsPayloadNotAVerb) {
  StartServer("frame");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  // A request frame whose first line happens to be "STATS" must not be
  // answered with a stats line: inside a frame the bytes are payload.
  client.SendRaw("not-a-header x=1\nSTATS\nEND\n");
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  // The connection survives and STATS between frames still works.
  const StatsSnapshot snap = client.Stats();
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_GE(snap.failed, 0u);
}

TEST_F(StatsLoopbackTest, InterleavesWithRequestsOnOneConnection) {
  StartServer("mix");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  EXPECT_TRUE(client.Call(MakeRequest(0, "a")).Ok());
  const StatsSnapshot mid = client.Stats();
  EXPECT_EQ(mid.completed, 1u);
  EXPECT_TRUE(client.Call(MakeRequest(0, "b")).Ok());
  const StatsSnapshot end = client.Stats();
  EXPECT_EQ(end.submitted, 2u);
  ExpectAdmissionIdentity(end);
}

}  // namespace
}  // namespace fadesched::service
