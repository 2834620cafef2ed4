// The load generator itself: every request reaches exactly one outcome
// with determinism cross-checked per frame, the drift option must keep
// the determinism ledger indexed correctly past the original pool, the
// per-class ok/shed split must account for every request when a tiny
// queue sheds, and the coordinated-omission-corrected latency must
// behave: equal to send-to-reply in closed loop (intended == send by
// construction), and never below it in open loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "service/loadgen.hpp"
#include "service/server.hpp"

namespace fadesched::service {
namespace {

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_loadgen_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

class LoadgenTest : public ::testing::Test {
 protected:
  void StartServer(const char* tag, std::size_t workers = 2) {
    options_.unix_socket_path = UniqueSocketPath(tag);
    options_.service.batcher.num_workers = workers;
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

  LoadgenOptions BaseOptions(std::size_t requests) const {
    LoadgenOptions load;
    load.unix_socket_path = options_.unix_socket_path;
    load.num_requests = requests;
    load.connections = 4;
    load.pool_size = 8;
    load.links = 20;
    load.hot_fraction = 0.75;
    return load;
  }

  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread serving_;
};

void ExpectClean(const LoadgenReport& report, std::size_t requests) {
  EXPECT_TRUE(report.Clean())
      << "mismatches=" << report.determinism_mismatches
      << " transport=" << report.transport_failures
      << " errors=" << report.errors;
  EXPECT_EQ(report.sent, requests);
  EXPECT_EQ(report.ok, requests) << "nothing sheds at this load";
  EXPECT_EQ(report.warm_ok + report.cold_ok, requests);
}

TEST_F(LoadgenTest, ClosedLoopCorrectedEqualsSendToReply) {
  StartServer("closed");
  LoadgenOptions load = BaseOptions(150);
  const LoadgenReport report = RunLoadgen(load);
  ExpectClean(report, 150);
  // Closed loop: intended == actual send, so the corrected percentiles
  // are the same samples (identical histogram bins, so exactly equal).
  EXPECT_DOUBLE_EQ(report.warm_corrected_p50_ms, report.warm_p50_ms);
  EXPECT_DOUBLE_EQ(report.warm_corrected_p99_ms, report.warm_p99_ms);
  EXPECT_DOUBLE_EQ(report.cold_corrected_p99_ms, report.cold_p99_ms);
}

TEST_F(LoadgenTest, OpenLoopCorrectedNeverUndercutsRaw) {
  StartServer("open");
  LoadgenOptions load = BaseOptions(200);
  load.connections = 2;
  load.rate_per_sec = 2000.0;  // brisk enough to queue client-side
  const LoadgenReport report = RunLoadgen(load);
  ExpectClean(report, 200);
  // Corrected latency includes the wait from intended release to actual
  // send — it can only add.
  EXPECT_GE(report.warm_corrected_p99_ms, report.warm_p99_ms - 1e-9);
  EXPECT_GE(report.cold_corrected_p99_ms, report.cold_p99_ms - 1e-9);
}

TEST_F(LoadgenTest, PerClassAccountingCoversEveryRequestUnderShedding) {
  // One worker and a two-slot queue under N=400 colds at 8000 req/s:
  // colds queue behind each other and some are usually shed, by the full
  // queue or the controller. How many depends on timing, so nothing
  // below counts them.
  options_.service.batcher.queue_capacity = 2;
  StartServer("classes", 1);
  LoadgenOptions load = BaseOptions(200);
  load.links = 400;

  // Prewarm the pool over one connection, so no first touch finds the
  // queue full.
  LoadgenOptions prewarm = load;
  prewarm.num_requests = load.pool_size;
  prewarm.connections = 1;
  prewarm.hot_fraction = 1.0;
  ExpectClean(RunLoadgen(prewarm), load.pool_size);

  load.hot_fraction = 0.5;
  load.rate_per_sec = 8000.0;
  const LoadgenReport report = RunLoadgen(load);
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.sent, 200u);
  EXPECT_EQ(report.warm_ok + report.warm_shed + report.cold_ok +
                report.cold_shed + report.timed_out + report.errors,
            report.sent);
  EXPECT_EQ(report.warm_shed + report.cold_shed, report.shed);
  // Every warm request replays a prewarmed pool entry: a response-cache
  // hit is answered on the connection thread and never queued, so
  // neither the full queue nor the controller can shed it.
  EXPECT_EQ(report.warm_shed, 0u);
  EXPECT_EQ(report.warm_ok, 100u);
}

TEST_F(LoadgenTest, DriftingPoolStaysDeterministic) {
  StartServer("drift");
  LoadgenOptions load = BaseOptions(300);
  load.drift_period = 20;  // 14 pool replacements over the run
  const LoadgenReport report = RunLoadgen(load);
  ExpectClean(report, 300);
  EXPECT_EQ(report.determinism_mismatches, 0u)
      << "drift frames must cross-check against their own ledger slot";
}

}  // namespace
}  // namespace fadesched::service
