#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <string>
#include <unistd.h>

#include "sim/checkpoint.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::sim {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fadesched_sweep_" + name;
}

// A deliberately tiny sweep so the whole suite stays fast: 2 points ×
// 2 algorithms × 2 seeds × 80 fading trials.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "sweep_test_tiny";
  spec.x_name = "num_links";
  spec.xs = {30, 45};
  spec.make_point = [](double x) {
    ExperimentPoint point;
    point.num_links = static_cast<std::size_t>(x);
    point.channel.alpha = 3.0;
    point.scenario.region_size = 200.0;
    return point;
  };
  return spec;
}

SweepOptions TinyOptions() {
  SweepOptions options;
  options.config.algorithms = {"ldp", "rle"};
  options.config.num_seeds = 2;
  options.config.trials = 80;
  options.config.threads = 2;
  options.deterministic = true;  // byte-identical tables across runs
  return options;
}

std::string BaselineTable() {
  // Computed once; every resume scenario must reproduce it byte for byte.
  static const std::string baseline =
      RunExperimentSweep(TinySpec(), TinyOptions()).table.ToString();
  return baseline;
}

TEST(SweepTest, UninterruptedRunProducesFullTable) {
  const SweepResult result = RunExperimentSweep(TinySpec(), TinyOptions());
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitOk);
  EXPECT_EQ(result.points_total, 2u);
  EXPECT_EQ(result.points_completed, 2u);
  EXPECT_EQ(result.points_resumed, 0u);
  EXPECT_EQ(result.failed_seeds, 0u);
  // points × algorithms data rows
  EXPECT_EQ(result.table.NumRows(), 4u);
  EXPECT_EQ(result.table.ToString(), BaselineTable());
}

TEST(SweepTest, DeterministicRunsAreByteIdentical) {
  const SweepResult again = RunExperimentSweep(TinySpec(), TinyOptions());
  EXPECT_EQ(again.table.ToString(), BaselineTable());
}

// Both drivers run RunExperimentSeed on the same seeded topologies, so a
// deterministic sweep equals RunExperimentPoint point by point on every
// column but the scheduler runtime.
TEST(SweepTest, AgreesWithRunExperimentPoint) {
  const SweepSpec spec = TinySpec();
  const SweepOptions options = TinyOptions();
  const SweepResult swept = RunExperimentSweep(spec, options);

  util::CsvTable expected = MakeSummaryTable(spec.x_name);
  {
    util::ThreadPool pool(options.config.threads);
    for (const double x : spec.xs) {
      AppendSummaryRows(expected, x, RunExperimentPoint(spec.make_point(x),
                                                        options.config, pool));
    }
  }
  ASSERT_EQ(swept.table.Header(), expected.Header());
  ASSERT_EQ(swept.table.NumRows(), expected.NumRows());
  for (std::size_t row = 0; row < expected.NumRows(); ++row) {
    for (std::size_t col = 0; col < expected.NumCols(); ++col) {
      if (expected.Header()[col] == "sched_ms") continue;
      EXPECT_EQ(swept.table.Cell(row, col), expected.Cell(row, col))
          << "row " << row << " column " << expected.Header()[col];
    }
  }
}

// The golden kill-and-resume drill: fork, let the child SIGKILL itself
// right after the first point's checkpoint lands, then resume in the
// parent and demand a byte-identical final table. fork() is safe here
// because RunExperimentSweep creates (and joins) its thread pool
// internally — no threads are alive in this process at fork time.
TEST(SweepTest, KillAndResumeReproducesBaselineByteForByte) {
  const std::string ck_path = TempPath("kill_resume.ck");
  const std::string out_path = TempPath("kill_resume.csv");
  util::RemoveFile(ck_path);
  util::RemoveFile(out_path);
  const std::string baseline = BaselineTable();

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: crash as soon as point 0 is checkpointed as complete.
    SweepOptions options = TinyOptions();
    options.checkpoint_path = ck_path;
    options.after_checkpoint = [](std::size_t point, std::size_t,
                                  bool complete) {
      if (complete && point == 0) std::raise(SIGKILL);
    };
    RunExperimentSweep(TinySpec(), options);
    _exit(7);  // not reached if the drill worked
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(util::FileExists(ck_path)) << "no checkpoint left behind";

  SweepOptions options = TinyOptions();
  options.checkpoint_path = ck_path;
  options.resume = true;
  options.out_path = out_path;
  const SweepResult resumed = RunExperimentSweep(TinySpec(), options);

  EXPECT_EQ(resumed.points_resumed, 1u);
  EXPECT_EQ(resumed.seeds_resumed, 2u);
  EXPECT_EQ(resumed.points_completed, 2u);
  EXPECT_EQ(resumed.table.ToString(), baseline);
  // The atomic CSV on disk matches too, and the checkpoint is cleaned up.
  EXPECT_EQ(util::ReadFileToString(out_path), baseline);
  EXPECT_FALSE(util::FileExists(ck_path));
  util::RemoveFile(out_path);
}

TEST(SweepTest, ResumingACompleteCheckpointRunsNothing) {
  const std::string ck_path = TempPath("complete.ck");
  util::RemoveFile(ck_path);

  SweepOptions options = TinyOptions();
  options.checkpoint_path = ck_path;
  options.keep_checkpoint = true;
  RunExperimentSweep(TinySpec(), options);
  ASSERT_TRUE(util::FileExists(ck_path));

  options.resume = true;
  const SweepResult resumed = RunExperimentSweep(TinySpec(), options);
  EXPECT_EQ(resumed.points_resumed, 2u);
  EXPECT_EQ(resumed.seeds_resumed, 4u);
  EXPECT_EQ(resumed.table.ToString(), BaselineTable());
  util::RemoveFile(ck_path);
}

TEST(SweepTest, ChangedConfigRefusesStaleCheckpoint) {
  const std::string ck_path = TempPath("stale.ck");
  util::RemoveFile(ck_path);

  SweepOptions options = TinyOptions();
  options.checkpoint_path = ck_path;
  options.keep_checkpoint = true;
  RunExperimentSweep(TinySpec(), options);
  ASSERT_TRUE(util::FileExists(ck_path));

  SweepOptions changed = options;
  changed.resume = true;
  changed.config.trials = 81;  // any config drift must refuse to resume
  try {
    RunExperimentSweep(TinySpec(), changed);
    FAIL() << "expected HarnessError";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
  }
  util::RemoveFile(ck_path);
}

TEST(SweepTest, WatchdogDegradesSeedsInsteadOfAborting) {
  SweepOptions options = TinyOptions();
  options.retry.seed_deadline_seconds = 1e-9;  // every seed times out
  const SweepResult result = RunExperimentSweep(TinySpec(), options);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitOk);
  EXPECT_EQ(result.failed_seeds, 4u);
  EXPECT_EQ(result.timed_out_seeds, 4u);
  EXPECT_EQ(result.points_completed, 2u);  // complete, just degraded
  EXPECT_EQ(result.table.NumRows(), 4u);
}

TEST(SweepTest, UnknownAlgorithmIsFatal) {
  SweepOptions options = TinyOptions();
  options.config.algorithms = {"no_such_scheduler"};
  EXPECT_THROW(RunExperimentSweep(TinySpec(), options), util::CheckFailure);
}

TEST(SweepTest, ShutdownRequestCheckpointsFlushesAndReportsInterrupted) {
  const std::string ck_path = TempPath("interrupt.ck");
  const std::string out_path = TempPath("interrupt.csv");
  util::RemoveFile(ck_path);
  util::RemoveFile(out_path);

  SweepOptions options = TinyOptions();
  options.checkpoint_path = ck_path;
  options.out_path = out_path;
  // Simulate Ctrl-C landing right after the first seed is checkpointed.
  options.after_checkpoint = [](std::size_t, std::size_t, bool) {
    util::RequestShutdown();
  };
  const SweepResult result = RunExperimentSweep(TinySpec(), options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitInterrupted);
  EXPECT_LT(result.points_completed, result.points_total);
  EXPECT_TRUE(util::FileExists(ck_path)) << "interrupt must checkpoint";
  EXPECT_TRUE(util::FileExists(out_path)) << "interrupt must flush CSV";
  util::ClearShutdownRequest();

  // The interrupted run's checkpoint resumes to the exact baseline.
  SweepOptions resume_options = TinyOptions();
  resume_options.checkpoint_path = ck_path;
  resume_options.out_path = out_path;
  resume_options.resume = true;
  const SweepResult resumed =
      RunExperimentSweep(TinySpec(), resume_options);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GT(resumed.seeds_resumed, 0u);
  EXPECT_EQ(resumed.table.ToString(), BaselineTable());
  EXPECT_EQ(util::ReadFileToString(out_path), BaselineTable());
  EXPECT_FALSE(util::FileExists(ck_path));
  util::RemoveFile(out_path);
}

}  // namespace
}  // namespace fadesched::sim
