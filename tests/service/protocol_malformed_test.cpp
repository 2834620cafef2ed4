// Malformed-frame hardening (a satellite of the chaos layer): truncated,
// oversized, garbage, and checksum-tampered frames must each produce a
// typed, line/byte-named error response — never a crash, never an
// unbounded buffer — and the server must keep serving afterwards. Every
// case runs against both front-ends: the in-process Server and the
// sharded router (ShardServer, 2 forked shards). Both take their
// frame-size, truncation and read-deadline guards from FrameScanner but
// act on them in their own loops. Counter assertions apply to the
// Server only; the router keeps no metrics. Run under ASan/UBSan in CI's
// chaos-smoke job.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_mal_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

SchedulingRequest MakeRequest(const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(5);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

enum class FrontEnd { kServer, kShardServer };

void PrintTo(FrontEnd front_end, std::ostream* os) {
  *os << (front_end == FrontEnd::kServer ? "Server" : "ShardServer");
}

/// Front-end + serve-thread fixture shared by every case.
class MalformedFrameTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  void StartServer(const char* tag,
                   const std::function<void(ServerOptions&)>& tweak = {}) {
    options_.unix_socket_path = UniqueSocketPath(tag);
    if (tweak) tweak(options_);
    if (GetParam() == FrontEnd::kServer) {
      server_ = std::make_unique<Server>(options_);
      server_->Start();
      serving_ = std::thread([this] { server_->Serve(); });
    } else {
      shard::ShardServerOptions sharded;
      sharded.server = options_;
      sharded.num_shards = 2;
      router_ = std::make_unique<shard::ShardServer>(sharded);
      router_->Start();
      serving_ = std::thread([this] { router_->Serve(); });
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (router_) router_->Stop();
    if (serving_.joinable()) serving_.join();
  }

  /// The Server's counters; null for the router, which keeps none.
  ServiceMetrics* Metrics() {
    return server_ ? &server_->Service().Metrics() : nullptr;
  }

  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<shard::ShardServer> router_;
  std::thread serving_;
};

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, MalformedFrameTest,
    ::testing::Values(FrontEnd::kServer, FrontEnd::kShardServer),
    [](const ::testing::TestParamInfo<FrontEnd>& param_info) {
      return ::testing::PrintToString(param_info.param);
    });

TEST_P(MalformedFrameTest, TruncatedFrameNamesHowManyLinesArrived) {
  StartServer("trunc");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw("REQUEST id=t scheduler=rle\nrow one\nrow two\n");
  client.ShutdownWrite();  // EOF mid-frame, read side stays open
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(err.message.find("truncated request frame after 3 line(s)"),
            std::string::npos)
      << err.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_GE(metrics->protocol_errors.load(), 1u);
  }
}

// EOF mid-frame means any pending byte: a partial first line with no
// newline yet is reported too, by both front-ends, as zero lines.
TEST_P(MalformedFrameTest, PartialFirstLineAtEofIsReportedTruncated) {
  StartServer("partial");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw("REQUEST id=x sch");
  client.ShutdownWrite();
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(err.message.find("truncated request frame after 0 line(s)"),
            std::string::npos)
      << err.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_EQ(metrics->protocol_errors.load(), 1u);
  }
}

// The truncation error is the connection's last line, sent once, even
// when the replies ahead of it back up past the read deadline while the
// client is not reading.
TEST_P(MalformedFrameTest, EofMidFrameIsReportedOnceBehindBackedUpReplies) {
  StartServer("backlog", [](ServerOptions& options) {
    options.read_deadline_seconds = 0.1;
  });
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  constexpr int kQueries = 2000;  // replies well past a socket buffer
  std::string wire;
  for (int i = 0; i < kQueries; ++i) wire += std::string(kStatsVerb) + "\n";
  client.SendRaw(wire + "REQUEST id=x sch");
  client.ShutdownWrite();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_NO_THROW((void)ParseStatsLine(client.ReadLine())) << "reply " << i;
  }
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_NE(err.message.find("truncated request frame after 0 line(s)"),
            std::string::npos)
      << err.message;
  EXPECT_THROW(client.ReadLine(), util::HarnessError) << "a second error";
}

TEST_P(MalformedFrameTest, OversizedFrameIsRejectedNamingTheCap) {
  StartServer("big", [](ServerOptions& options) {
    options.max_frame_bytes = 4096;
  });
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  // One endless line, no newline at all — the degenerate slowest case
  // for a line-oriented parser; must be capped, not buffered forever.
  client.SendRaw("REQUEST id=big scheduler=rle\n" +
                 std::string(8192, 'a'));
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(err.message.find("max_frame_bytes=4096"), std::string::npos)
      << err.message;
  // Receives are clipped at the cap, so neither front-end buffers more
  // than one byte past it, however much the socket holds.
  EXPECT_NE(err.message.find("(4097 bytes buffered)"), std::string::npos)
      << err.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_EQ(metrics->oversized_frames.load(), 1u);
  }
  // The guard closes the connection: the next read sees EOF.
  EXPECT_THROW(client.ReadLine(), util::HarnessError);
}

TEST_P(MalformedFrameTest, GarbageBytesGetATypedErrorAndServiceContinues) {
  StartServer("garbage");
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw("\x01\x02\x7f not a header\nEND\n");
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(err.message.find("request frame line 1"), std::string::npos)
      << err.message;
  // Same connection, valid request: still served.
  const SchedulingResponse ok = client.Call(MakeRequest("after-garbage"));
  EXPECT_TRUE(ok.Ok()) << ok.message;
}

TEST_P(MalformedFrameTest, TamperedChecksumIsATransientNotACallerBug) {
  StartServer("sum");
  std::string frame = FormatRequestFrame(MakeRequest("tamper"));
  const std::size_t pos = frame.find("check=");
  ASSERT_NE(pos, std::string::npos);
  // Flip one hex digit of the claimed checksum: the frame still parses,
  // so only the integrity check can catch it — and it must classify as
  // kTransient (wire corruption is retryable).
  frame[pos + 6] = frame[pos + 6] == '0' ? '1' : '0';
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw(frame);
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kTransient);
  EXPECT_NE(err.message.find("checksum mismatch"), std::string::npos)
      << err.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_EQ(metrics->checksum_failures.load(), 1u);
  }
}

TEST_P(MalformedFrameTest, HeaderTamperingIsCaughtByTheFrameChecksum) {
  StartServer("hdr");
  std::string frame = FormatRequestFrame(MakeRequest("hdr"));
  // Corrupt the scheduler NAME (still a parseable token): without the
  // frame-wide checksum this would surface as "unknown scheduler" — a
  // fake caller bug.
  const std::size_t pos = frame.find("scheduler=rle");
  ASSERT_NE(pos, std::string::npos);
  frame[pos + 10] = 'x';  // rle -> xle
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw(frame);
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.error_kind, util::ErrorKind::kTransient);
  EXPECT_NE(err.message.find("checksum mismatch"), std::string::npos)
      << err.message;
}

TEST_P(MalformedFrameTest, MidFrameDisconnectDoesNotPoisonTheServer) {
  StartServer("vanish");
  {
    Client client;
    client.ConnectUnix(options_.unix_socket_path);
    client.SendRaw("REQUEST id=v scheduler=rle\nhalf a frame\n");
    client.Close();  // vanish entirely, both directions
  }
  // A fresh client is served normally afterwards.
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  const SchedulingResponse ok = client.Call(MakeRequest("survivor"));
  EXPECT_TRUE(ok.Ok()) << ok.message;
}

TEST_P(MalformedFrameTest, SlowLorisMidFrameIsEvictedWithATimeout) {
  StartServer("loris", [](ServerOptions& options) {
    options.read_deadline_seconds = 0.3;
  });
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  client.SendRaw("REQUEST id=slow scheduler=rle\n");  // then... nothing
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_EQ(err.error_kind, util::ErrorKind::kTimeout);
  EXPECT_NE(err.message.find("read deadline"), std::string::npos)
      << err.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_EQ(metrics->evicted_slow.load(), 1u);
  }
}

TEST_P(MalformedFrameTest, IdleBetweenFramesIsNeverEvicted) {
  StartServer("idle", [](ServerOptions& options) {
    options.read_deadline_seconds = 0.2;
  });
  Client client;
  client.ConnectUnix(options_.unix_socket_path);
  // Sit idle well past the read deadline WITHOUT starting a frame:
  // keepalive is legitimate, only mid-frame stalls are evicted.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const SchedulingResponse ok = client.Call(MakeRequest("keepalive"));
  EXPECT_TRUE(ok.Ok()) << ok.message;
  if (ServiceMetrics* metrics = Metrics()) {
    EXPECT_EQ(metrics->evicted_slow.load(), 0u);
  }
}

}  // namespace
}  // namespace fadesched::service
