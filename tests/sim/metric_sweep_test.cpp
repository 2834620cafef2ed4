// RunMetricSweep — the generic crash-safe driver the dynamics benches run
// on. Mirrors sweep_test's drills (kill-and-resume, stale checkpoint,
// watchdog degradation) against the caller-supplied-measurement variant.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <map>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "util/atomic_io.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::sim {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fadesched_msweep_" + name;
}

// A pure arithmetic sweep: every cell is a closed-form function of its
// indices, so the expected aggregates are exact and every resume path
// must land on the same bytes.
MetricSweepSpec TinySpec() {
  MetricSweepSpec spec;
  spec.name = "metric_sweep_test_tiny";
  spec.x_name = "x";
  spec.xs = {1.0, 2.0};
  spec.series = {"a", "b"};
  spec.metrics = {"value", "twice"};
  spec.num_seeds = 3;
  spec.config_fingerprint = 0x1234;
  spec.run_seed = [](std::size_t point, std::size_t series,
                     std::size_t seed_index, const util::Deadline&) {
    const double v = static_cast<double>(100 * point + 10 * series +
                                         seed_index);
    return std::vector<double>{v, 2.0 * v};
  };
  return spec;
}

std::string BaselineTable() {
  static const std::string baseline =
      RunMetricSweep(TinySpec(), {}).table.ToString();
  return baseline;
}

TEST(MetricSweepTest, AggregatesSeedsIntoExactMeans) {
  const SweepResult result = RunMetricSweep(TinySpec(), {});
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitOk);
  EXPECT_EQ(result.points_total, 2u);
  EXPECT_EQ(result.points_completed, 2u);
  ASSERT_EQ(result.table.NumRows(), 4u);  // 2 points × 2 series

  // Row order is point-major; seeds {v, v+1, v+2} average to v+1.
  for (std::size_t point = 0; point < 2; ++point) {
    for (std::size_t series = 0; series < 2; ++series) {
      const std::size_t row = 2 * point + series;
      const double expected =
          static_cast<double>(100 * point + 10 * series) + 1.0;
      EXPECT_EQ(result.table.Cell(row, "series"), series == 0 ? "a" : "b");
      EXPECT_DOUBLE_EQ(result.table.CellAsDouble(row, "x"),
                       static_cast<double>(point + 1));
      EXPECT_DOUBLE_EQ(result.table.CellAsDouble(row, "value_mean"),
                       expected);
      EXPECT_DOUBLE_EQ(result.table.CellAsDouble(row, "twice_mean"),
                       2.0 * expected);
      EXPECT_GT(result.table.CellAsDouble(row, "value_ci95"), 0.0);
    }
  }
}

TEST(MetricSweepTest, RepeatRunsAreByteIdentical) {
  EXPECT_EQ(RunMetricSweep(TinySpec(), {}).table.ToString(),
            BaselineTable());
}

// The golden kill-and-resume drill, metric-sweep edition: the child dies
// by SIGKILL right after point 0 checkpoints complete; the parent resumes
// and must (a) reproduce the baseline byte for byte and (b) not re-run
// any checkpointed seed.
TEST(MetricSweepTest, KillAndResumeReproducesBaselineByteForByte) {
  const std::string ck_path = TempPath("kill_resume.ck");
  const std::string out_path = TempPath("kill_resume.csv");
  util::RemoveFile(ck_path);
  util::RemoveFile(out_path);
  const std::string baseline = BaselineTable();

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    MetricSweepOptions options;
    options.checkpoint_path = ck_path;
    options.after_checkpoint = [](std::size_t point, std::size_t,
                                  bool complete) {
      if (complete && point == 0) std::raise(SIGKILL);
    };
    RunMetricSweep(TinySpec(), options);
    _exit(7);  // not reached if the drill worked
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(util::FileExists(ck_path)) << "no checkpoint left behind";

  MetricSweepSpec spec = TinySpec();
  std::size_t live_runs = 0;
  const auto inner = spec.run_seed;
  spec.run_seed = [&](std::size_t point, std::size_t series,
                      std::size_t seed_index, const util::Deadline& dl) {
    ++live_runs;
    return inner(point, series, seed_index, dl);
  };
  MetricSweepOptions options;
  options.checkpoint_path = ck_path;
  options.resume = true;
  options.out_path = out_path;
  const SweepResult resumed = RunMetricSweep(spec, options);

  EXPECT_EQ(resumed.points_resumed, 1u);
  EXPECT_EQ(resumed.seeds_resumed, 3u);  // a seed spans every series
  EXPECT_EQ(resumed.points_completed, 2u);
  // Point 1 alone reruns: 3 seeds × 2 series run_seed calls.
  EXPECT_EQ(live_runs, 6u) << "resumed seeds must not re-run";
  EXPECT_EQ(resumed.table.ToString(), baseline);
  EXPECT_EQ(util::ReadFileToString(out_path), baseline);
  EXPECT_FALSE(util::FileExists(ck_path));
  util::RemoveFile(out_path);
}

TEST(MetricSweepTest, ChangedFingerprintRefusesStaleCheckpoint) {
  const std::string ck_path = TempPath("stale.ck");
  util::RemoveFile(ck_path);

  MetricSweepOptions options;
  options.checkpoint_path = ck_path;
  options.keep_checkpoint = true;
  RunMetricSweep(TinySpec(), options);
  ASSERT_TRUE(util::FileExists(ck_path));

  MetricSweepSpec changed = TinySpec();
  changed.config_fingerprint = 0x5678;  // any config drift must refuse
  options.resume = true;
  try {
    RunMetricSweep(changed, options);
    FAIL() << "expected HarnessError";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
  }
  util::RemoveFile(ck_path);
}

TEST(MetricSweepTest, TransientFailuresRetryAndSucceed) {
  MetricSweepSpec spec = TinySpec();
  std::map<std::size_t, std::size_t> attempts;
  const auto inner = spec.run_seed;
  spec.run_seed = [&](std::size_t point, std::size_t series,
                      std::size_t seed_index, const util::Deadline& dl) {
    const std::size_t key = 100 * point + 10 * series + seed_index;
    if (++attempts[key] == 1 && key == 11) {
      throw std::runtime_error("flaky once");
    }
    return inner(point, series, seed_index, dl);
  };
  const SweepResult result = RunMetricSweep(spec, {});
  EXPECT_EQ(result.retried_seeds, 1u);
  EXPECT_EQ(result.failed_seeds, 0u);
  EXPECT_EQ(result.table.ToString(), BaselineTable());
}

TEST(MetricSweepTest, TimeoutsDegradeWithoutRetrying) {
  MetricSweepSpec spec = TinySpec();
  std::size_t calls = 0;
  spec.run_seed = [&](std::size_t, std::size_t, std::size_t,
                      const util::Deadline&) -> std::vector<double> {
    ++calls;
    throw util::TimeoutError("too slow");
  };
  const SweepResult result = RunMetricSweep(spec, {});
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitOk);
  // A seed spans every series, so 2 points × 3 seeds degrade, and each
  // dies on its first series call with no retry.
  EXPECT_EQ(result.failed_seeds, 6u);
  EXPECT_EQ(result.timed_out_seeds, 6u);
  EXPECT_EQ(result.retried_seeds, 0u);
  EXPECT_EQ(calls, 6u) << "timeouts must not burn retry attempts";
  EXPECT_EQ(result.points_completed, 2u);  // complete, just degraded
}

TEST(MetricSweepTest, ShutdownRequestCheckpointsAndResumesToBaseline) {
  const std::string ck_path = TempPath("interrupt.ck");
  const std::string out_path = TempPath("interrupt.csv");
  util::RemoveFile(ck_path);
  util::RemoveFile(out_path);

  MetricSweepOptions options;
  options.checkpoint_path = ck_path;
  options.out_path = out_path;
  options.after_checkpoint = [](std::size_t, std::size_t, bool) {
    util::RequestShutdown();
  };
  const SweepResult result = RunMetricSweep(TinySpec(), options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.ExitCode(), util::kExitInterrupted);
  EXPECT_TRUE(util::FileExists(ck_path)) << "interrupt must checkpoint";
  EXPECT_TRUE(util::FileExists(out_path)) << "interrupt must flush CSV";
  util::ClearShutdownRequest();

  MetricSweepOptions resume_options;
  resume_options.checkpoint_path = ck_path;
  resume_options.out_path = out_path;
  resume_options.resume = true;
  const SweepResult resumed =
      RunMetricSweep(TinySpec(), resume_options);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GT(resumed.seeds_resumed, 0u);
  EXPECT_EQ(resumed.table.ToString(), BaselineTable());
  EXPECT_EQ(util::ReadFileToString(out_path), BaselineTable());
  EXPECT_FALSE(util::FileExists(ck_path));
  util::RemoveFile(out_path);
}

}  // namespace
}  // namespace fadesched::sim
