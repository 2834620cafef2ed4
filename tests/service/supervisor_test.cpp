// Crash-only supervisor tests: seeded fault-plan determinism, crash
// restarts with backoff, the flap breaker, startup-crash injection,
// stalls, a clean drain, and a SIGHUP roll driven through the stepwise
// API. The served end-to-end drills (a SIGHUP roll under live traffic, a
// shard killed mid-frame) run through the sharded router in
// shard_server_test.cpp.
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

TEST(ProcessFaultPlanTest, SameSeedSamePlan) {
  ProcessChaosOptions chaos;
  chaos.seed = 42;
  chaos.kills = 5;
  chaos.stalls = 3;
  chaos.startup_crashes = 2;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_EQ(FormatProcessFaultPlan(a), FormatProcessFaultPlan(b));
  EXPECT_EQ(a.size(), 10u);
}

TEST(ProcessFaultPlanTest, DifferentSeedsDiffer) {
  ProcessChaosOptions chaos;
  chaos.kills = 5;
  chaos.seed = 1;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  chaos.seed = 2;
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_NE(FormatProcessFaultPlan(a), FormatProcessFaultPlan(b));
}

TEST(ProcessFaultPlanTest, AddingStallsDoesNotMoveKills) {
  ProcessChaosOptions chaos;
  chaos.seed = 7;
  chaos.kills = 4;
  const auto kills_only = BuildProcessFaultPlan(chaos, 2);
  chaos.stalls = 6;
  const auto mixed = BuildProcessFaultPlan(chaos, 2);
  // Per-kind derived streams: the kill events must be identical whether
  // or not stalls ride along (the shrink property — dropping one fault
  // family leaves the others untouched).
  std::vector<std::pair<double, std::size_t>> a, b;
  for (const auto& e : kills_only) {
    if (e.kind == ProcessFaultEvent::Kind::kKill) a.push_back({e.at_seconds, e.slot});
  }
  for (const auto& e : mixed) {
    if (e.kind == ProcessFaultEvent::Kind::kKill) b.push_back({e.at_seconds, e.slot});
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 4u);
}

TEST(ProcessFaultPlanTest, PlanIsTimeSortedAndInsideWindow) {
  ProcessChaosOptions chaos;
  chaos.seed = 9;
  chaos.kills = 8;
  chaos.stalls = 8;
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
  SupervisorReport report;
  std::thread runner([&] { report = supervisor.Run(); });
  std::this_thread::sleep_for(milliseconds(200));
  supervisor.Stop();
  runner.join();
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
  SupervisorReport report;
  std::thread runner([&] { report = supervisor.Run(); });
  std::this_thread::sleep_for(milliseconds(700));
  supervisor.Stop();
  runner.join();
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
  // Every spawn crashes instantly: Run must terminate on its own with
  // the breaker open (the test would time out if it looped forever).
  Supervisor supervisor([](std::size_t, std::size_t) { return 1; }, options);
  const SupervisorReport report = supervisor.Run();
  EXPECT_TRUE(report.breaker_open);
  EXPECT_GT(report.restarts, options.max_restarts_in_window);
}

TEST(SupervisorTest, StartupCrashInjectionIsCountedAndRecovered) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.startup_crashes = 2;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  std::thread runner([&] { report = supervisor.Run(); });
  std::this_thread::sleep_for(milliseconds(400));
  supervisor.Stop();
  runner.join();
  // Both initial spawns _exit(77) before serving; the respawns are clean.
  EXPECT_EQ(report.startup_crashes, 2u);
  EXPECT_EQ(report.crashes, 2u);
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, InjectedKillsAllLandAndRestart) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.kills = 3;
  options.chaos.window_seconds = 0.4;
  options.chaos.seed = 5;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  std::thread runner([&] { report = supervisor.Run(); });
  // Window + backoffs + a margin: every planned kill must actually land
  // (held, not dropped, when its victim is mid-respawn).
  std::this_thread::sleep_for(milliseconds(1200));
  supervisor.Stop();
  runner.join();
  EXPECT_EQ(report.injected_kills, 3u);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_EQ(report.restarts, 3u);
  EXPECT_EQ(report.spawned, 5u);
}

TEST(SupervisorTest, StallsPauseWithoutRestarting) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.stalls = 2;
  options.chaos.window_seconds = 0.3;
  options.chaos.stall_seconds = 0.05;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  std::thread runner([&] { report = supervisor.Run(); });
  std::this_thread::sleep_for(milliseconds(700));
  supervisor.Stop();
  runner.join();
  // A SIGSTOP/SIGCONT stall is not a crash: nothing restarts.
  EXPECT_EQ(report.injected_stalls, 2u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.restarts, 0u);
}

// A SIGHUP is only a request: the embedder consumes it and rolls each
// slot through BeginSlotShutdown("rolled"). Rolled respawns are neither
// crashes nor crash restarts.
TEST(SupervisorTest, SighupRollsEveryWorkerWithoutCrashCounts) {
  Supervisor supervisor(SleepyWorker, FastOptions(2));
  supervisor.Begin();
  const auto tick_until = [&](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      supervisor.Step();
      std::this_thread::sleep_for(milliseconds(10));
    }
    return false;
  };
  EXPECT_TRUE(tick_until([&] {
    return supervisor.SlotPid(0) > 0 && supervisor.SlotPid(1) > 0;
  }));
  EXPECT_FALSE(supervisor.ConsumeHupRequest());
  ::kill(::getpid(), SIGHUP);
  EXPECT_TRUE(tick_until([&] { return supervisor.ConsumeHupRequest(); }));
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const pid_t old_pid = supervisor.SlotPid(slot);
    supervisor.BeginSlotShutdown(slot, "rolled");
    EXPECT_TRUE(tick_until([&] {
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
