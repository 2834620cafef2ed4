// End-to-end loopback tests: plain `serve`'s topology (a ShardServer
// with its in-process local slot) on a Unix-domain socket (and once on
// TCP), real Clients, real bytes. These are the tests that pin
// the wire-level determinism contract and the graceful-drain semantics
// the CI smoke job relies on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

std::string UniqueSocketPath(const char* tag) {
  // Keep it short: sun_path caps out around 100 bytes.
  return (std::filesystem::temp_directory_path() /
          ("fs_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

SchedulingRequest MakeRequest(std::uint64_t case_index,
                              const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(5);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

TEST(ServerLoopbackTest, ServesOverUnixSocket) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("unix");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectUnix(options.server.unix_socket_path);
  const SchedulingResponse response = client.Call(MakeRequest(0, "q1"));
  EXPECT_TRUE(response.Ok()) << response.message;
  EXPECT_EQ(response.id, "q1");

  server.Stop();
  serving.join();
}

TEST(ServerLoopbackTest, ServesOverTcpEphemeralPort) {
  shard::ShardServerOptions options;  // TCP: no unix path, port 0
  shard::ShardServer server(options);
  server.Start();
  ASSERT_GT(server.Port(), 0);
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectTcp("127.0.0.1", server.Port());
  const SchedulingResponse response = client.Call(MakeRequest(0, "q1"));
  EXPECT_TRUE(response.Ok()) << response.message;

  server.Stop();
  serving.join();
}

TEST(ServerLoopbackTest, RepeatedRequestsAreByteIdenticalAcrossClients) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("det");
  options.server.service.batcher.num_workers = 4;
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  const SchedulingRequest request = MakeRequest(1, "same");
  const std::string frame = FormatRequestFrame(request);
  std::vector<std::string> lines(6);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      client.ConnectUnix(options.server.unix_socket_path);
      for (int r = 0; r < 2; ++r) {
        client.SendRaw(frame);
        lines[static_cast<std::size_t>(c * 2 + r)] = client.ReadLine();
      }
    });
  }
  for (auto& client : clients) client.join();
  for (const std::string& line : lines) {
    EXPECT_EQ(line, lines[0]);
    EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
  }

  server.Stop();
  serving.join();
}

TEST(ServerLoopbackTest, MalformedFrameGetsAnErrLineAndConnectionSurvives) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("err");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectUnix(options.server.unix_socket_path);
  client.SendRaw("REQUEST id=x\nEND\n");  // missing scheduler=
  const SchedulingResponse err = ParseResponseLine(client.ReadLine());
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_NE(err.message.find("missing scheduler="), std::string::npos);

  // The same connection still serves valid requests afterwards.
  const SchedulingResponse ok = client.Call(MakeRequest(0, "after"));
  EXPECT_TRUE(ok.Ok()) << ok.message;

  server.Stop();
  serving.join();
}

TEST(ServerLoopbackTest, UnknownSchedulerTravelsAsErrorKindFatal) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("unk");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectUnix(options.server.unix_socket_path);
  SchedulingRequest request = MakeRequest(0, "u1");
  request.scheduler = "nonexistent";
  const SchedulingResponse response = client.Call(request);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal);
  EXPECT_EQ(response.id, "u1");

  server.Stop();
  serving.join();
}

TEST(ServerLoopbackTest, StopDrainsInFlightWorkBeforeReturning) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("drain");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectUnix(options.server.unix_socket_path);
  client.SendRaw(FormatRequestFrame(MakeRequest(2, "inflight")));
  // Wait until the request is admitted, then stop — the drain must still
  // deliver its response.
  while (server.LocalService()->Metrics().admitted.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  const SchedulingResponse response = ParseResponseLine(client.ReadLine());
  EXPECT_TRUE(response.Ok()) << response.message;
  EXPECT_EQ(response.id, "inflight");
  serving.join();

  // After the drain, the server's metrics account for exactly that work.
  EXPECT_EQ(server.LocalService()->Metrics().completed.load(), 1u);
}

TEST(ServerLoopbackTest, PipelinedFramesAndStatsComeBackInRequestOrder) {
  // One write: a cold N=600 frame, a warm frame, then STATS. The local
  // slot admits all three at once: the warm frame and STATS are
  // answered inline on the loop while the cold frame still schedules, so
  // their replies wait in the connection's FIFO behind it.
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("order");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  Client client;
  client.ConnectUnix(options.server.unix_socket_path);
  ASSERT_TRUE(client.Call(MakeRequest(3, "first")).Ok());  // now warm
  rng::Xoshiro256 gen(600);
  SchedulingRequest cold;
  cold.scenario.links =
      net::MakeUniformScenario(600, net::UniformScenarioParams{}, gen);
  cold.scheduler = "rle";
  cold.id = "cold";
  const SchedulingRequest warm = MakeRequest(3, "warm");
  client.SendRaw(FormatRequestFrame(cold) + FormatRequestFrame(warm) +
                 std::string(kStatsVerb) + "\n");
  const std::string cold_line = client.ReadLine();
  const std::string warm_line = client.ReadLine();
  const std::string stats_line = client.ReadLine();

  SchedulingService reference;
  EXPECT_EQ(cold_line, FormatResponseLine(reference.HandleNow(cold)));
  EXPECT_EQ(warm_line, FormatResponseLine(reference.HandleNow(warm)));
  EXPECT_TRUE(ParseResponseLine(cold_line).Ok()) << cold_line;
  EXPECT_EQ(ParseStatsLine(stats_line).submitted, 3u) << stats_line;

  server.Stop();
  serving.join();
}

}  // namespace
}  // namespace fadesched::service
