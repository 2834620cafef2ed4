// Batcher-under-chaos (a satellite of the chaos layer): a client that
// dies mid-request — before its response can be written — must not leak
// a queue slot or leave a future unfulfilled. The accounting invariant
// is: every admitted request resolves (completed/failed/timed_out), the
// queue returns to depth 0, and a drain fulfills every pending promise.
// Run under ASan in CI's chaos-smoke job, which would flag a leaked
// std::promise shared state.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/batcher.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::service {
namespace {

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_bc_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

SchedulingRequest MakeRequest(const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(7);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

SchedulingResponse OkResponse(const SchedulingRequest& request) {
  SchedulingResponse response;
  response.id = request.id;
  response.claimed_rate = 1.0;
  return response;
}

/// A handler whose execution can be held at a gate, so tests can pin
/// requests in the queue deterministically.
class GatedHandler {
 public:
  RequestBatcher::Handler AsHandler() {
    return [this](const SchedulingRequest& request) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_wait_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      return OkResponse(request);
    };
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

  void WaitForEntered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_wait_.wait_for(lock, std::chrono::seconds(5),
                      [&] { return entered_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable cv_wait_;
  bool open_ = false;
  int entered_ = 0;
};

TEST(BatcherChaosTest, AbandonedFuturesStillResolveAndFreeTheirSlots) {
  ServiceMetrics metrics;
  BatcherOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  RequestBatcher batcher(
      [](const SchedulingRequest& request) { return OkResponse(request); },
      options, &metrics);
  // Submit and immediately DROP every future — the dead-client pattern.
  // The promise's shared state must be fulfilled and released regardless
  // (ASan flags it otherwise).
  for (int i = 0; i < 16; ++i) {
    batcher.Submit(MakeRequest("drop-" + std::to_string(i)));
  }
  batcher.Drain();
  EXPECT_EQ(batcher.QueueDepth(), 0u);
  // Depending on worker scheduling some submits may shed (capacity 8),
  // but every one of the 16 reached a terminal outcome, and everything
  // admitted was resolved — no slot leaked behind a dropped future.
  EXPECT_EQ(metrics.admitted.load() + metrics.shed.load(), 16u);
  EXPECT_EQ(metrics.completed.load() + metrics.failed.load() +
                metrics.timed_out.load(),
            metrics.admitted.load());
}

TEST(BatcherChaosTest, DrainFulfillsEveryPendingFuture) {
  GatedHandler gate;
  BatcherOptions options;
  options.num_workers = 1;
  options.queue_capacity = 16;
  RequestBatcher batcher(gate.AsHandler(), options);
  std::vector<std::future<SchedulingResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(batcher.Submit(MakeRequest(std::to_string(i))));
  }
  std::thread draining([&] { batcher.Drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  draining.join();
  // Drain completes queued + in-flight work: every future is ready and
  // carries a real response (the contract says futures never dangle).
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().Ok());
  }
  EXPECT_EQ(batcher.QueueDepth(), 0u);
}

TEST(BatcherChaosTest, SubmitDuringDrainIsAnsweredNotDropped) {
  ServiceMetrics metrics;
  RequestBatcher batcher(
      [](const SchedulingRequest& request) { return OkResponse(request); },
      {}, &metrics);
  batcher.Drain();
  std::future<SchedulingResponse> future =
      batcher.Submit(MakeRequest("late"));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  const SchedulingResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kInterrupted);
  EXPECT_EQ(metrics.rejected_draining.load(), 1u);
}

TEST(BatcherChaosTest, ShedResponsesAreImmediateWhenTheQueueIsFull) {
  GatedHandler gate;
  ServiceMetrics metrics;
  BatcherOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  RequestBatcher batcher(gate.AsHandler(), options, &metrics);
  // First request occupies the worker; second fills the single slot.
  std::future<SchedulingResponse> running =
      batcher.Submit(MakeRequest("running"));
  gate.WaitForEntered(1);
  std::future<SchedulingResponse> queued =
      batcher.Submit(MakeRequest("queued"));
  // Third must shed immediately — blocking here would be the exact
  // failure mode the chaos soak guards against (a wedged producer).
  std::future<SchedulingResponse> extra = batcher.Submit(MakeRequest("x"));
  ASSERT_EQ(extra.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(extra.get().status, ResponseStatus::kShed);
  EXPECT_EQ(metrics.shed.load(), 1u);
  gate.Open();
  EXPECT_TRUE(running.get().Ok());
  EXPECT_TRUE(queued.get().Ok());
  batcher.Drain();
  EXPECT_EQ(metrics.admitted.load(), 2u);
  EXPECT_EQ(metrics.completed.load(), 2u);
}

TEST(BatcherChaosTest, DeadSocketClientDoesNotLeakItsRequest) {
  shard::ShardServerOptions options;
  options.server.unix_socket_path = UniqueSocketPath("dead");
  shard::ShardServer server(options);
  server.Start();
  std::thread serving([&] { server.Serve(); });

  // A client that submits a valid request and vanishes before reading
  // the answer. The reply's write fails (EPIPE), which must be
  // absorbed — not crash via SIGPIPE, not leak the slot.
  for (int i = 0; i < 4; ++i) {
    Client client;
    client.ConnectUnix(options.server.unix_socket_path);
    client.SendRaw(FormatRequestFrame(MakeRequest("dead-" + std::to_string(i))));
    client.Close();  // gone before the response exists
  }

  // The service keeps working for well-behaved clients afterwards.
  Client survivor;
  survivor.ConnectUnix(options.server.unix_socket_path);
  const SchedulingResponse ok = survivor.Call(MakeRequest("alive"));
  EXPECT_TRUE(ok.Ok()) << ok.message;
  survivor.Close();

  server.Stop();
  serving.join();
  // After the drain, the admission ledger balances: everything admitted
  // was resolved even though four responses had nowhere to go.
  ServiceMetrics& metrics = server.LocalService()->Metrics();
  EXPECT_GE(metrics.admitted.load(), 1u);
  EXPECT_EQ(metrics.admitted.load(),
            metrics.completed.load() + metrics.failed.load() +
                metrics.timed_out.load());
}

}  // namespace
}  // namespace fadesched::service
