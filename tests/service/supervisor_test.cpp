// Crash-only supervisor tests: seeded kill-plan determinism and its
// pinned placements, crash restarts with backoff, the flap breaker,
// injected kills, a clean drain, and a SIGHUP roll, all driven through
// the stepwise Begin/Step/End API that the shard router uses. The served
// end-to-end drills (a SIGHUP roll under live traffic, a shard killed
// mid-frame) run through the sharded router in shard_server_test.cpp.
//
// These tests fork real processes. Children run entirely inside
// Supervisor::SpawnWorker's child branch, which _exit()s after
// worker_main — they never return into gtest.
#include "service/supervisor.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service {
namespace {

using std::chrono::milliseconds;

/// Worker that serves nothing: waits for the drain signal, exits 0.
int SleepyWorker(std::size_t /*slot*/, std::size_t /*ordinal*/) {
  util::ScopedSignalGuard guard;
  while (!util::ShutdownRequested()) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  return 0;
}

/// Steps `supervisor` (already begun) every 10 ms until `done()` holds or
/// `budget` runs out; false on running out. A bounded stand-in for the
/// shard router's epoll tick.
template <typename Done>
bool StepUntil(Supervisor& supervisor, Done done,
               milliseconds budget = milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    supervisor.Step();
    std::this_thread::sleep_for(milliseconds(10));
  }
  return false;
}

/// Steps `supervisor` for `span`, then ends it.
SupervisorReport StepFor(Supervisor& supervisor, milliseconds span) {
  StepUntil(supervisor, [] { return false; }, span);
  return supervisor.End();
}

SupervisorOptions FastOptions(std::size_t workers) {
  SupervisorOptions options;
  options.num_workers = workers;
  options.backoff_initial_seconds = 0.01;
  options.backoff_max_seconds = 0.05;
  options.stable_seconds = 60.0;  // streaks never reset mid-test
  options.max_restarts_in_window = 100;
  options.restart_window_seconds = 60.0;
  options.drain_grace_seconds = 5.0;
  return options;
}

// ---------------------------------------------------------------------------
// Fault plan: pure functions, no processes.

std::vector<std::pair<double, std::size_t>> Kills(
    const std::vector<ProcessFaultEvent>& plan) {
  std::vector<std::pair<double, std::size_t>> kills;
  for (const ProcessFaultEvent& e : plan) {
    kills.push_back({e.at_seconds, e.slot});
  }
  return kills;
}

TEST(ProcessFaultPlanTest, SameSeedSamePlan) {
  ProcessChaosOptions chaos;
  chaos.seed = 42;
  chaos.kills = 5;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_EQ(Kills(a), Kills(b));
  EXPECT_EQ(a.size(), 5u);
}

TEST(ProcessFaultPlanTest, DifferentSeedsDiffer) {
  ProcessChaosOptions chaos;
  chaos.kills = 5;
  chaos.seed = 1;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  chaos.seed = 2;
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_NE(Kills(a), Kills(b));
}

// The kill placements of CI's two `serve --shards` drills, pinned
// bit-exactly: a --chaos-seed must keep landing its kills where it
// always has (the seed·φ+1 kill stream).
TEST(ProcessFaultPlanTest, DrillKillPlacementsArePinned) {
  ProcessChaosOptions soak;  // --shards 4 --chaos-kills 1 --chaos-seed 5
  soak.seed = 5;
  soak.kills = 1;
  soak.window_seconds = 2.0;
  const std::vector<std::pair<double, std::size_t>> soak_kills = {
      {0x1.869a17ff202ap+0, 1}};
  EXPECT_EQ(Kills(BuildProcessFaultPlan(soak, 4)), soak_kills);

  // --shards 2 --chaos-kills 6 --chaos-seed 3 --chaos-window 0.5
  ProcessChaosOptions flap;
  flap.seed = 3;
  flap.kills = 6;
  flap.window_seconds = 0.5;
  const std::vector<std::pair<double, std::size_t>> flap_kills = {
      {0x1.c7061a43b90b2p-3, 1}, {0x1.0bcf761e244fp-2, 0},
      {0x1.0f6683ad21af4p-2, 0}, {0x1.35f9a89a299f1p-2, 0},
      {0x1.869a17ff202ap-2, 1},  {0x1.9686b91ce8c2cp-2, 1}};
  EXPECT_EQ(Kills(BuildProcessFaultPlan(flap, 2)), flap_kills);
}

TEST(ProcessFaultPlanTest, PlanIsTimeSortedAndInsideWindow) {
  ProcessChaosOptions chaos;
  chaos.seed = 9;
  chaos.kills = 8;
  chaos.window_seconds = 2.5;
  const auto plan = BuildProcessFaultPlan(chaos, 4);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].at_seconds, plan[i].at_seconds);
  }
  for (const auto& e : plan) {
    EXPECT_GE(e.at_seconds, 0.0);
    EXPECT_LT(e.at_seconds, chaos.window_seconds);
    EXPECT_LT(e.slot, 4u);
  }
}

TEST(ProcessFaultPlanTest, ValidateRejectsBadWindow) {
  ProcessChaosOptions chaos;
  chaos.window_seconds = 0.0;
  EXPECT_THROW(chaos.Validate(), util::HarnessError);
}

TEST(SupervisorOptionsTest, ValidateRejectsBadConfigs) {
  {
    SupervisorOptions bad = FastOptions(0);
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    SupervisorOptions bad = FastOptions(1);
    bad.backoff_multiplier = 0.5;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    SupervisorOptions bad = FastOptions(1);
    bad.max_restarts_in_window = 0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
}

// ---------------------------------------------------------------------------
// Process-level behaviour.

TEST(SupervisorTest, StopDrainsAllWorkersCleanly) {
  Supervisor supervisor(SleepyWorker, FastOptions(3));
  supervisor.Begin();
  const SupervisorReport report = StepFor(supervisor, milliseconds(200));
  EXPECT_EQ(report.spawned, 3u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, CrashedWorkersAreRestartedUntilStable) {
  // Ordinals 0..2 crash on sight; ordinal 3 serves. One slot, so the
  // sequence is strictly: crash, backoff, crash, backoff, crash, stable.
  Supervisor supervisor(
      [](std::size_t slot, std::size_t ordinal) {
        return ordinal < 3 ? 1 : SleepyWorker(slot, ordinal);
      },
      FastOptions(1));
  supervisor.Begin();
  const SupervisorReport report = StepFor(supervisor, milliseconds(700));
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_EQ(report.restarts, 3u);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, FlapBreakerOpensOnCrashLoop) {
  SupervisorOptions options = FastOptions(2);
  options.backoff_initial_seconds = 0.001;
  options.backoff_max_seconds = 0.005;
  options.max_restarts_in_window = 4;
  options.restart_window_seconds = 30.0;
  // Every spawn crashes instantly: the breaker must open on its own
  // within the step budget.
  Supervisor supervisor([](std::size_t, std::size_t) { return 1; }, options);
  supervisor.Begin();
  EXPECT_TRUE(StepUntil(supervisor, [&] { return supervisor.BreakerOpen(); }));
  const SupervisorReport report = supervisor.End();
  EXPECT_TRUE(report.breaker_open);
  EXPECT_GT(report.restarts, options.max_restarts_in_window);
}

TEST(SupervisorTest, InjectedKillsAllLandAndRestart) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.kills = 3;
  options.chaos.window_seconds = 0.4;
  options.chaos.seed = 5;
  Supervisor supervisor(SleepyWorker, options);
  supervisor.Begin();
  // Window + backoffs + a margin: every planned kill must actually land
  // (held, not dropped, when its victim is mid-respawn).
  const SupervisorReport report = StepFor(supervisor, milliseconds(1200));
  EXPECT_EQ(report.injected_kills, 3u);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_EQ(report.restarts, 3u);
  EXPECT_EQ(report.spawned, 5u);
}

// A SIGHUP is only a request: the embedder consumes it and rolls each
// slot through BeginSlotShutdown("rolled"). Rolled respawns are neither
// crashes nor crash restarts.
TEST(SupervisorTest, SighupRollsEveryWorkerWithoutCrashCounts) {
  Supervisor supervisor(SleepyWorker, FastOptions(2));
  supervisor.Begin();
  EXPECT_TRUE(StepUntil(supervisor, [&] {
    return supervisor.SlotPid(0) > 0 && supervisor.SlotPid(1) > 0;
  }));
  EXPECT_FALSE(supervisor.ConsumeHupRequest());
  ::kill(::getpid(), SIGHUP);
  EXPECT_TRUE(
      StepUntil(supervisor, [&] { return supervisor.ConsumeHupRequest(); }));
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const pid_t old_pid = supervisor.SlotPid(slot);
    supervisor.BeginSlotShutdown(slot, "rolled");
    EXPECT_TRUE(StepUntil(supervisor, [&] {
      const pid_t pid = supervisor.SlotPid(slot);
      return pid > 0 && pid != old_pid;
    }));
  }
  const SupervisorReport report = supervisor.End();
  EXPECT_EQ(report.rolled, 2u);
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.restarts, 0u);
}

}  // namespace
}  // namespace fadesched::service
