// Drain edge cases. The contract under test: a drain (SIGTERM / Stop /
// destructor) fulfills every accepted request exactly once — queued and
// in-flight work completes, late submissions get a typed interrupted-shed
// — and a client's in-flight frame is either answered with one complete,
// checksummed line or met with a clean EOF (never a partial line, never
// a duplicate).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "service/batcher.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

using std::chrono::milliseconds;

TEST(DrainEdgeTest, DrainMidBatchFulfillsEveryFutureExactlyOnce) {
  ServiceMetrics metrics;
  BatcherOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1000;
  options.overload.queue_delay_target_ms = 0.0;  // isolate drain semantics
  RequestBatcher batcher(
      [](const SchedulingRequest& request) {
        std::this_thread::sleep_for(milliseconds(2));
        SchedulingResponse response;
        response.status = ResponseStatus::kOk;
        response.id = request.id;
        return response;
      },
      options, &metrics);

  // Fill the queue well past the workers, so the drain arrives with most
  // of the batch still queued.
  std::vector<std::future<SchedulingResponse>> futures;
  for (int i = 0; i < 60; ++i) {
    SchedulingRequest request;
    request.id = "pre" + std::to_string(i);
    futures.push_back(batcher.Submit(std::move(request)));
  }

  // Race the drain against a second wave of submissions.
  std::thread drainer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    batcher.Drain();
  });
  for (int i = 0; i < 60; ++i) {
    SchedulingRequest request;
    request.id = "mid" + std::to_string(i);
    futures.push_back(batcher.Submit(std::move(request)));
  }
  drainer.join();

  std::size_t ok = 0, interrupted = 0;
  for (auto& future : futures) {
    ASSERT_TRUE(future.valid());
    // The future is fulfilled exactly once and never with an exception —
    // get() must return a response, not block and not throw.
    const SchedulingResponse response = future.get();
    if (response.Ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, ResponseStatus::kShed) << response.message;
      EXPECT_EQ(response.error_kind, util::ErrorKind::kInterrupted);
      ++interrupted;
    }
  }
  EXPECT_EQ(ok + interrupted, 120u);
  // Everything submitted before the drain completes; only mid-drain
  // submissions may be refused.
  EXPECT_GE(ok, 60u);

  // Ledger identities at quiescence.
  EXPECT_EQ(metrics.submitted.load(), 120u);
  EXPECT_EQ(metrics.submitted.load(),
            metrics.admitted.load() + metrics.shed.load() +
                metrics.shed_overload.load() +
                metrics.rejected_draining.load());
  EXPECT_EQ(metrics.admitted.load(), metrics.completed.load() +
                                         metrics.failed.load() +
                                         metrics.timed_out.load());
  EXPECT_EQ(metrics.rejected_draining.load(), interrupted);
}

TEST(DrainEdgeTest, RepeatedDrainIsIdempotent) {
  RequestBatcher batcher([](const SchedulingRequest&) {
    return SchedulingResponse{};
  });
  batcher.Drain();
  batcher.Drain();  // second drain (and the destructor's third) must not
                    // double-complete anything
  SchedulingRequest request;
  request.id = "late";
  const SchedulingResponse response = batcher.Execute(std::move(request));
  EXPECT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kInterrupted);
}

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_drain_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

TEST(DrainEdgeTest, StopMidFlightAnswersOrCleanlyEofsEveryFrame) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("midflight");
  options.server.service.batcher.num_workers = 2;
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  fadesched::testing::ScenarioFuzzer fuzzer(17);
  std::atomic<std::size_t> answered{0}, eofs{0};
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      client.ConnectUnix(options.server.unix_socket_path);
      for (int r = 0;; ++r) {
        SchedulingRequest request;
        request.scenario = fuzzer.Case(static_cast<std::uint64_t>(c));
        request.scheduler = "rle";
        request.id = "c" + std::to_string(c) + "_" + std::to_string(r);
        std::string line;
        try {
          client.SendRaw(FormatRequestFrame(request));
          line = client.ReadLine();
        } catch (const util::HarnessError&) {
          // EOF (or reset) without a response: the frame was never
          // acknowledged — a retry elsewhere would be safe. This is the
          // only acceptable non-answer.
          eofs.fetch_add(1);
          return;
        }
        // Any line that did arrive must be complete and uncorrupted.
        try {
          const SchedulingResponse response = ParseResponseLine(line);
          if (!response.Ok() &&
              response.error_kind != util::ErrorKind::kInterrupted) {
            corrupt.store(true);
          }
        } catch (const std::exception&) {
          corrupt.store(true);
        }
        answered.fetch_add(1);
        // Well past the event loop's 20 ms tick: the connection is idle
        // at a tick between our frames, the only point where a drain may
        // hang up (never mid-frame).
        std::this_thread::sleep_for(milliseconds(250));
      }
    });
  }

  std::this_thread::sleep_for(milliseconds(100));
  server.Stop();
  serving.join();
  for (auto& client : clients) client.join();

  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(answered.load(), 0u);
  // Every client ended with a clean EOF, never a partial line.
  EXPECT_EQ(eofs.load(), 3u);
}

}  // namespace
}  // namespace fadesched::service
