// End-to-end drills of the sharded serving tier over a real Unix-domain
// socket: response byte-identity across shard counts (the router must be
// invisible in the bytes), tier-wide STATS aggregation, warm-affinity vs
// round-robin placement, worker-kill recovery with minimal remap, a shard
// killed while holding an unanswered frame, and a SIGHUP rolling restart
// under live traffic. These tests fork real shard processes, so they live
// in their own binary.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service::shard {
namespace {

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_shard_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

SchedulingRequest Request(std::uint64_t case_index, const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(21);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

std::string Frame(std::uint64_t case_index, const std::string& id) {
  return FormatRequestFrame(Request(case_index, id));
}

class ShardServerTest : public ::testing::Test {
 protected:
  void StartServer(const char* tag, std::size_t shards,
                   RoutingMode routing = RoutingMode::kAffinity,
                   const std::function<void(ShardServerOptions&)>& tweak = {}) {
    options_ = ShardServerOptions{};
    options_.server.unix_socket_path = UniqueSocketPath(tag);
    options_.server.service.batcher.num_workers = 2;
    options_.server.service.cache.capacity_bytes = 32u << 20;
    options_.num_shards = shards;
    options_.routing = routing;
    options_.supervisor.drain_grace_seconds = 5.0;
    if (tweak) tweak(options_);
    server_ = std::make_unique<ShardServer>(options_);
    server_->Start();
    serving_ = std::thread([this] { server_->Serve(); });
  }

  void StopServer() {
    if (server_ == nullptr) return;
    server_->Stop();
    if (serving_.joinable()) serving_.join();
  }

  void TearDown() override { StopServer(); }

  std::unique_ptr<Client> Connect() {
    auto client = std::make_unique<Client>();
    client->ConnectUnix(options_.server.unix_socket_path);
    return client;
  }

  ShardServerOptions options_;
  std::unique_ptr<ShardServer> server_;
  std::thread serving_;
};

/// Raw OK lines for the given scenarios, in order, over one connection.
std::vector<std::string> CollectLines(Client& client, std::size_t scenarios,
                                      const char* id_prefix) {
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < scenarios; ++s) {
    client.SendRaw(Frame(s, id_prefix + std::to_string(s)));
    lines.push_back(client.ReadLine());
  }
  return lines;
}

TEST_F(ShardServerTest, ResponsesAreByteIdenticalAcrossShardCounts) {
  // THE routing-transparency contract from the issue: for a given
  // fingerprint the response bytes must not depend on how many shards
  // served it.
  StartServer("one", 1);
  const std::unique_ptr<Client> one = Connect();
  const std::vector<std::string> lines_one = CollectLines(*one, 6, "x");
  one->Close();
  StopServer();

  StartServer("four", 4);
  const std::unique_ptr<Client> four = Connect();
  const std::vector<std::string> lines_four = CollectLines(*four, 6, "x");
  for (std::size_t s = 0; s < lines_one.size(); ++s) {
    EXPECT_EQ(lines_one[s], lines_four[s]) << "scenario " << s;
    const SchedulingResponse response = ParseResponseLine(lines_four[s]);
    EXPECT_TRUE(response.Ok()) << response.message;
  }
}

TEST_F(ShardServerTest, RepeatsAreServedFromTheWarmShard) {
  StartServer("warm", 4);
  const std::unique_ptr<Client> client = Connect();
  // Three passes over the same scenarios: pass 1 builds, passes 2-3 must
  // be response-cache hits on whichever shard owns each fingerprint.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t s = 0; s < 8; ++s) {
      client->SendRaw(Frame(s, "p" + std::to_string(pass) + "_" +
                                  std::to_string(s)));
      const SchedulingResponse response =
          ParseResponseLine(client->ReadLine());
      ASSERT_TRUE(response.Ok()) << response.message;
    }
  }
  const StatsSnapshot stats = client->Stats();
  EXPECT_EQ(stats.submitted, 24u) << "aggregate must cover all shards";
  EXPECT_GT(stats.WarmHitRate(), 0.5)
      << "affinity routing must land repeats on the warm shard";
}

TEST_F(ShardServerTest, AffinityBeatsRoundRobinOnWarmHits) {
  // Identical seeded traffic through both placement policies; only the
  // placement differs, so any warm-hit gap is pure routing. Pool size 9
  // is coprime with 4 shards, so round-robin sprays each scenario across
  // different shards pass over pass.
  const auto run = [&](const char* tag, RoutingMode mode) {
    StartServer(tag, 4, mode);
    const std::unique_ptr<Client> client = Connect();
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t s = 0; s < 9; ++s) {
        client->SendRaw(Frame(s, "q" + std::to_string(pass) + "_" +
                                    std::to_string(s)));
        const SchedulingResponse response =
            ParseResponseLine(client->ReadLine());
        EXPECT_TRUE(response.Ok()) << response.message;
      }
    }
    const StatsSnapshot stats = client->Stats();
    client->Close();
    StopServer();
    return stats.WarmHitRate();
  };
  const double affinity = run("aff", RoutingMode::kAffinity);
  const double round_robin = run("rr", RoutingMode::kRoundRobin);
  EXPECT_GT(affinity, round_robin)
      << "affinity=" << affinity << " round_robin=" << round_robin;
}

TEST_F(ShardServerTest, StatsAggregatesEveryShard) {
  StartServer("stats", 3);
  const std::unique_ptr<Client> client = Connect();
  for (std::size_t s = 0; s < 12; ++s) {
    client->SendRaw(Frame(s, "s" + std::to_string(s)));
    ASSERT_TRUE(ParseResponseLine(client->ReadLine()).Ok());
  }
  const StatsSnapshot stats = client->Stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ShardServerTest, KilledWorkerRespawnsAndKeepsServing) {
  StartServer("kill", 2);
  const std::unique_ptr<Client> client = Connect();
  for (std::size_t s = 0; s < 6; ++s) {
    client->SendRaw(Frame(s, "k" + std::to_string(s)));
    ASSERT_TRUE(ParseResponseLine(client->ReadLine()).Ok());
  }

  const pid_t victim = server_->WorkerPid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // Wait for the respawn (crash-path respawn is immediate once reaped).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->WorkerPid(0) == victim ||
         server_->WorkerPid(0) <= 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker never respawned";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Same fingerprints, same bytes — the respawned shard re-owns the same
  // arc (cold, but correct), and the other shard's keys never moved.
  for (std::size_t s = 0; s < 6; ++s) {
    client->SendRaw(Frame(s, "k" + std::to_string(s)));
    const SchedulingResponse response = ParseResponseLine(client->ReadLine());
    EXPECT_TRUE(response.Ok()) << response.message;
  }
  StopServer();

  const SupervisorReport& report = server_->Report();
  EXPECT_GE(report.crashes, 1u);
  ASSERT_EQ(report.slots.size(), 2u);
  EXPECT_EQ(report.slots[0].last_respawn_reason, "crash");
  EXPECT_EQ(report.slots[0].spawns, 2u);
  EXPECT_EQ(report.slots[1].spawns, 1u) << "the healthy shard must not churn";
}

TEST_F(ShardServerTest, WorkerHoldsOnlyStdioAndItsPipe) {
  // A socket the embedding process holds when a worker forks, such as a
  // client of its own, must not leak into the worker: a copy there would
  // keep the socket open after the holder closes it.
  int unrelated[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, unrelated), 0);
  StartServer("fds", 1);
  const std::unique_ptr<Client> client = Connect();
  client->SendRaw(Frame(0, "fd"));  // answered only once the worker serves
  ASSERT_TRUE(ParseResponseLine(client->ReadLine()).Ok());
  const pid_t worker = server_->WorkerPid(0);
  ASSERT_GT(worker, 0);

  std::set<int> fds;
  const std::filesystem::path table =
      "/proc/" + std::to_string(worker) + "/fd";
  for (const auto& entry : std::filesystem::directory_iterator(table)) {
    fds.insert(std::stoi(entry.path().filename().string()));
  }
  EXPECT_EQ(fds, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(std::filesystem::read_symlink(table / "3").string().rfind(
                "socket:", 0),
            0u)
      << "fd 3 is not the worker's pipe";
  ::close(unrelated[0]);
  ::close(unrelated[1]);
}

/// Polls until both shard slots hold a live worker other than `old`'s.
void AwaitFreshWorkers(const ShardServer& server, const pid_t (&old)[2]) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const pid_t now0 = server.WorkerPid(0);
    const pid_t now1 = server.WorkerPid(1);
    if (now0 > 0 && now1 > 0 && now0 != old[0] && now1 != old[1]) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shard workers never (re)spawned";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST_F(ShardServerTest, KilledMidFrameGetsATypedTransientAndResendIsByteIdentical) {
  // A frame is routed to a shard that dies before answering it. The
  // client must get a typed, retryable error line — never silence — and
  // an idempotent re-send must return exactly the bytes the in-process
  // service computes for that frame.
  StartServer("midframe", 2);
  ASSERT_NO_FATAL_FAILURE(AwaitFreshWorkers(*server_, {-1, -1}));
  const pid_t victims[2] = {server_->WorkerPid(0), server_->WorkerPid(1)};
  // Stopped workers never read their pipe, so whichever shard owns the
  // frame holds it unanswered until the kill.
  for (const pid_t pid : victims) ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  const std::string frame = Frame(0, "once");
  const std::unique_ptr<Client> client = Connect();
  client->SendRaw(frame);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (const pid_t pid : victims) ASSERT_EQ(::kill(pid, SIGKILL), 0);

  const SchedulingResponse lost = ParseResponseLine(client->ReadLine());
  EXPECT_EQ(lost.status, ResponseStatus::kError);
  EXPECT_EQ(lost.error_kind, util::ErrorKind::kTransient) << lost.message;

  ASSERT_NO_FATAL_FAILURE(AwaitFreshWorkers(*server_, victims));
  client->SendRaw(frame);
  const std::string served = client->ReadLine();
  SchedulingService in_process(options_.server.service);
  EXPECT_EQ(served,
            FormatResponseLine(in_process.HandleNow(Request(0, "once"))));
  EXPECT_TRUE(ParseResponseLine(served).Ok());
  StopServer();
  EXPECT_EQ(server_->Report().crashes, 2u);
}

TEST_F(ShardServerTest, APauseLongerThanTheReadDeadlineIsNotAStall) {
  // One write of kConnFifoCap + 1 frames to stopped workers: the router
  // carves kConnFifoCap of them and stops reading with the last one
  // pending in the scanner, mid-frame by the slow-loris guard's reading.
  // The pause is the router's, not the client's, so it must outlast the
  // read deadline without an eviction.
  StartServer("pause", 2, RoutingMode::kAffinity,
              [](ShardServerOptions& options) {
                options.server.read_deadline_seconds = 0.2;
              });
  ASSERT_NO_FATAL_FAILURE(AwaitFreshWorkers(*server_, {-1, -1}));
  const pid_t workers[2] = {server_->WorkerPid(0), server_->WorkerPid(1)};
  for (const pid_t pid : workers) ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  std::string burst;
  for (std::size_t i = 0; i <= ShardServer::kConnFifoCap; ++i) {
    burst += Frame(0, "p" + std::to_string(i));
  }
  const std::unique_ptr<Client> client = Connect();
  client->SendRaw(burst);  // fits the socket buffer: the send returns
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  for (const pid_t pid : workers) ASSERT_EQ(::kill(pid, SIGCONT), 0);

  for (std::size_t i = 0; i <= ShardServer::kConnFifoCap; ++i) {
    const std::string line = client->ReadLine();
    const SchedulingResponse response = ParseResponseLine(line);
    ASSERT_TRUE(response.Ok()) << line;
    ASSERT_EQ(response.id, "p" + std::to_string(i));
  }
}

TEST_F(ShardServerTest, SighupRollsEveryShardUnderLiveTraffic) {
  StartServer("roll", 2);
  const std::unique_ptr<Client> client = Connect();
  for (std::size_t s = 0; s < 4; ++s) {
    client->SendRaw(Frame(s, "r" + std::to_string(s)));
    ASSERT_TRUE(ParseResponseLine(client->ReadLine()).Ok());
  }
  const pid_t before0 = server_->WorkerPid(0);
  const pid_t before1 = server_->WorkerPid(1);

  std::raise(SIGHUP);
  // Traffic through the roll: every request must still be answered OK —
  // the ring-aware drain keeps N-1 shards warm at every instant.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::size_t id = 0;
  for (;;) {
    client->SendRaw(Frame(id % 4, "roll" + std::to_string(id)));
    const SchedulingResponse response = ParseResponseLine(client->ReadLine());
    ASSERT_TRUE(response.Ok()) << response.message;
    ++id;
    const pid_t now0 = server_->WorkerPid(0);
    const pid_t now1 = server_->WorkerPid(1);
    if (now0 > 0 && now1 > 0 && now0 != before0 && now1 != before1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "roll never completed after " << id << " requests";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  StopServer();

  const SupervisorReport& report = server_->Report();
  EXPECT_EQ(report.rolled, 2u);
  EXPECT_EQ(report.spawned, 4u) << "two initial forks plus one per roll";
  EXPECT_EQ(report.crashes, 0u) << "a roll is not a crash";
  EXPECT_EQ(report.restarts, 0u) << "a roll is not a crash restart";
  ASSERT_EQ(report.slots.size(), 2u);
  EXPECT_EQ(report.slots[0].last_respawn_reason, "rolled");
  EXPECT_EQ(report.slots[1].last_respawn_reason, "rolled");
}

TEST_F(ShardServerTest, DeadClientMidDrainBatchDoesNotKillTheRouter) {
  // Regression drill for a use-after-free: with the ring dead,
  // RouteFrame/RouteStats complete their tickets synchronously from
  // inside HandleConnReadable's drain loop, and the completion used to
  // flush immediately — a failed write to a vanished client then closed
  // (destroyed) the Conn that the drain loop still held a reference to.
  StartServer("uaf", 1, RoutingMode::kAffinity, [](ShardServerOptions& o) {
    // Hold the killed shard down long enough to drive traffic through
    // the no-live-shard / zero-stats-targets synchronous paths.
    o.supervisor.backoff_initial_seconds = 3.0;
  });
  {
    const std::unique_ptr<Client> warm = Connect();
    warm->SendRaw(Frame(0, "w0"));
    ASSERT_TRUE(ParseResponseLine(warm->ReadLine()).Ok());
  }
  const pid_t victim = server_->WorkerPid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->WorkerPid(0) > 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "killed shard never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // One write burst mixing frames and a STATS verb, then vanish without
  // reading: every event fails/completes synchronously against the dead
  // ring, and the flush hits a peer-closed socket (EPIPE).
  for (int round = 0; round < 8; ++round) {
    const std::unique_ptr<Client> ghost = Connect();
    ghost->SendRaw(Frame(1, "g0") + "STATS\n" + Frame(2, "g1") +
                   Frame(3, "g2"));
    ghost->Close();
  }

  // The router must have survived: a live client still gets typed
  // answers on the same paths the ghosts just abused.
  const std::unique_ptr<Client> after = Connect();
  after->SendRaw(Frame(4, "a0"));
  const SchedulingResponse response = ParseResponseLine(after->ReadLine());
  EXPECT_FALSE(response.Ok());
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient)
      << response.message;
  const StatsSnapshot zero = after->Stats();  // zero-target fan-out
  EXPECT_EQ(zero.submitted, 0u);
}

TEST_F(ShardServerTest, StatsSkipsShardsOverThePipeCap) {
  // Regression: the STATS fan-out used to enqueue onto a worker pipe
  // regardless of shard_pipe_cap_bytes — growing router memory past the
  // documented cap and parking the stats ticket behind a stalled worker.
  // With the only shard over cap, STATS must answer (zero snapshot, the
  // stalled shard's contribution is lost) instead of hanging.
  StartServer("cap", 1, RoutingMode::kAffinity, [](ShardServerOptions& o) {
    o.shard_pipe_cap_bytes = 1024;
  });
  {
    const std::unique_ptr<Client> warm = Connect();
    warm->SendRaw(Frame(0, "w0"));
    ASSERT_TRUE(ParseResponseLine(warm->ReadLine()).Ok());
  }
  const pid_t pid = server_->WorkerPid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);

  // Flood without reading until the kernel pipe is full and slot.out
  // grows past the cap. Junk envelopes keep the post-SIGCONT backlog
  // cheap (the worker rejects them without scheduling anything). The
  // router stops reading a connection once it holds kConnFifoCap
  // tickets, so the flood is spread over connections of that many
  // frames each.
  const std::string junk = std::string(512, 'x') + "\nEND\n";
  std::string burst;
  for (std::size_t i = 0; i < ShardServer::kConnFifoCap; ++i) burst += junk;
  std::vector<std::unique_ptr<Client>> flood;
  for (int i = 0; i < 32; ++i) {  // ~1 MiB total
    flood.push_back(Connect());
    flood.back()->SendRaw(burst);
  }
  // The router consumes the flood fast (every over-cap frame fails
  // without touching the worker); give it a beat to finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // Fresh connection, fresh FIFO: a frame must shed with the typed
  // backpressure error, and STATS must answer instead of queueing onto
  // the stalled pipe.
  const std::unique_ptr<Client> probe = Connect();
  probe->SendRaw(junk);
  const SchedulingResponse shed = ParseResponseLine(probe->ReadLine());
  EXPECT_FALSE(shed.Ok());
  EXPECT_EQ(shed.error_kind, util::ErrorKind::kTransient) << shed.message;
  EXPECT_NE(shed.message.find("backpressure"), std::string::npos)
      << shed.message;
  const StatsSnapshot snap = probe->Stats();
  EXPECT_EQ(snap.submitted, 0u)
      << "the over-cap shard's contribution must drop out";

  ASSERT_EQ(::kill(pid, SIGCONT), 0);
  for (const std::unique_ptr<Client>& client : flood) client->Close();
}

TEST_F(ShardServerTest, DrainsCleanlyAndUnlinksTheSocket) {
  StartServer("drain", 2);
  {
    const std::unique_ptr<Client> client = Connect();
    client->SendRaw(Frame(0, "d0"));
    ASSERT_TRUE(ParseResponseLine(client->ReadLine()).Ok());
  }
  StopServer();
  EXPECT_FALSE(
      std::filesystem::exists(options_.server.unix_socket_path));
  const SupervisorReport& report = server_->Report();
  EXPECT_FALSE(report.breaker_open);
  EXPECT_EQ(report.crashes, 0u);
}

/// Pipelines copies of `request`, with ids "b0", "b1", ..., on `client`'s
/// non-blocking socket, never reading, until a send finds no room for
/// 500 ms or `bound_bytes` went out. Returns whether it stalled; `frames`
/// is the count started, `pending` the unsent tail of the last one, and
/// `sent` the bytes that went out.
bool PipelineUntilStalled(Client& client, SchedulingRequest request,
                          std::size_t bound_bytes, std::size_t& frames,
                          std::string& pending, std::size_t& sent) {
  const int fd = client.NativeHandle();
  frames = 0;
  sent = 0;
  pending.clear();
  for (;;) {
    if (sent >= bound_bytes) return false;
    if (pending.empty()) {
      request.id = "b" + std::to_string(frames++);
      pending = FormatRequestFrame(request);
    }
    const ssize_t n = ::send(fd, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      pending.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      ADD_FAILURE() << std::strerror(errno);
      return false;
    }
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 500) == 0) return true;  // no room for 500 ms
  }
}

TEST_F(ShardServerTest, PastTheDrainGraceUnsentRepliesAreDropped) {
  // Plain `serve`'s drain is bounded by the drain grace: a client that
  // never reads holds its connection open past it, so the connection is
  // closed with replies still unsent. Those replies are lost, and the
  // client reads the ones that were sent, in order, then EOF.
  StartServer("grace", 0, RoutingMode::kAffinity,
              [](ShardServerOptions& options) {
                options.supervisor.drain_grace_seconds = 0.3;
              });
  const std::unique_ptr<Client> client = Connect();
  const SchedulingRequest request = Request(0, "warm");
  ASSERT_TRUE(client->Call(request).Ok());
  std::size_t frames = 0;
  std::size_t sent = 0;
  std::string pending;
  ASSERT_TRUE(PipelineUntilStalled(*client, request, std::size_t{16} << 20,
                                   frames, pending, sent))
      << "the server took " << sent << " bytes from a client that never reads";

  const auto stop_at = std::chrono::steady_clock::now();
  StopServer();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_at,
            std::chrono::seconds(5))
      << "the drain outlived its grace";

  std::size_t received = 0;
  try {
    for (;;) {
      const SchedulingResponse response =
          ParseResponseLine(client->ReadLine());
      ASSERT_TRUE(response.Ok());
      ASSERT_EQ(response.id, "b" + std::to_string(received));
      ++received;
    }
  } catch (const util::HarnessError& e) {
    // Closed (EOF, or a reset: frames were left unread), not timed out.
    EXPECT_NE(e.kind(), util::ErrorKind::kTimeout) << e.what();
  }
  EXPECT_LT(received, frames) << "every reply arrived; nothing was dropped";
}

/// Runs the fixture at a slot count: 0 is plain `serve`'s local slot.
class ConnectionBackpressureTest
    : public ShardServerTest,
      public ::testing::WithParamInterface<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Slots, ConnectionBackpressureTest,
    ::testing::Values(std::size_t{0}, std::size_t{2}),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      return std::to_string(param_info.param);
    });

TEST_P(ConnectionBackpressureTest, ANonReadingPipelinerStallsThenGetsAllInOrder) {
  // A client that pipelines warm frames and never reads must stall in
  // its own send once the front-end stops reading its connection, not
  // grow the server's buffers without bound. Reading then delivers every
  // reply, in request order.
  StartServer("bp", GetParam());
  const std::unique_ptr<Client> client = Connect();
  SchedulingRequest request = Request(0, "warm");
  ASSERT_TRUE(client->Call(request).Ok());

  std::size_t frames = 0;
  std::size_t sent = 0;
  std::string pending;  // unsent tail of the frame being written
  ASSERT_TRUE(PipelineUntilStalled(*client, request, std::size_t{16} << 20,
                                   frames, pending, sent))
      << "the server took " << sent << " bytes from a client that never reads";

  // Read every reply while the last frame's tail goes out.
  const int fd = client->NativeHandle();
  std::vector<std::string> lines;
  std::string read_error;
  std::thread reader([&] {
    try {
      for (std::size_t i = 0; i < frames; ++i) {
        lines.push_back(client->ReadLine());
      }
    } catch (const std::exception& e) {
      read_error = e.what();
    }
  });
  while (!pending.empty()) {
    const ssize_t n = ::send(fd, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      pending.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd writable{fd, POLLOUT, 0};
      ::poll(&writable, 1, 1000);
    } else {
      break;
    }
  }
  reader.join();
  EXPECT_TRUE(pending.empty()) << "the last frame's tail was refused";
  ASSERT_EQ(read_error, "");
  ASSERT_EQ(lines.size(), frames);
  for (std::size_t i = 0; i < frames; ++i) {
    const SchedulingResponse response = ParseResponseLine(lines[i]);
    ASSERT_TRUE(response.Ok()) << lines[i];
    ASSERT_EQ(response.id, "b" + std::to_string(i));
  }
}

}  // namespace
}  // namespace fadesched::service::shard
