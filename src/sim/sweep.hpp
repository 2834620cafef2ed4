// Crash-safe, resumable sweep driver — the harness every figure bench and
// every dynamics bench runs on.
//
// RunMetricSweep is the one driver: points (x values) × seeds × series,
// each seed of each series yielding one double per metric, with the
// robustness layer a fire-and-forget loop lacks:
//
//   * checkpoint/resume: progress is persisted atomically after every
//     completed seed in the one checkpoint format (sim/checkpoint.hpp); a
//     killed sweep resumes from the checkpoint and re-aggregates
//     bit-identically to an uninterrupted run (guarded by a config
//     fingerprint so a changed sweep refuses a stale checkpoint);
//   * watchdog + bounded retries: each seed runs under an optional
//     deadline; transient failures are retried, timeouts and exhausted
//     retries degrade to a recorded failed_seeds count instead of
//     aborting the sweep, and fatal errors (programming bugs) still
//     abort loudly;
//   * graceful shutdown: SIGINT/SIGTERM checkpoints, flushes the partial
//     CSV atomically, and reports "interrupted" so callers can exit with
//     the distinct status code 3.
//
// RunExperimentSweep is RunMetricSweep instantiated for the paper's
// figures: series are the algorithms, metrics the seven AlgoSummary
// accumulators, and each seed is RunExperimentSeed on that seed's
// topology.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/deadline.hpp"

namespace fadesched::sim {

/// Bounded-retry + watchdog policy, applied per seed.
struct RetryPolicy {
  /// Total attempts per seed (first run + retries). Only transient
  /// errors are retried; timeouts and fatal errors never are.
  std::size_t max_attempts = 2;
  /// Per-seed watchdog deadline in seconds; 0 disables the watchdog.
  double seed_deadline_seconds = 0.0;
};

struct MetricSweepSpec {
  /// Stable sweep identifier (e.g. the bench name); part of the
  /// checkpoint fingerprint so two different benches cannot consume each
  /// other's checkpoints.
  std::string name;
  std::string x_name;
  std::vector<double> xs;
  /// Row labels, e.g. scheduler names. Whitespace-free (they are
  /// checkpoint tokens and CSV cells).
  std::vector<std::string> series;
  /// Column labels; each becomes `<metric>_mean` / `<metric>_ci95`.
  std::vector<std::string> metrics;
  std::size_t num_seeds = 1;
  /// Hash of every caller option that shapes results (mix with the
  /// Fingerprint* helpers); combined with name/xs/series/metrics/seeds
  /// to guard resume.
  std::uint64_t config_fingerprint = 0;
  /// run_seed(point_index, series_index, seed_index, deadline) → one
  /// value per metric, in metrics order. Runs under the retry policy:
  /// throw TimeoutError for watchdog expiry (never retried),
  /// InterruptedError for shutdown, anything non-fatal for a transient
  /// failure (retried up to the attempt budget).
  std::function<std::vector<double>(std::size_t, std::size_t, std::size_t,
                                    const util::Deadline&)>
      run_seed;
  /// Lays out the result table from the checkpoint's completed points.
  /// Empty = columns x_name, "series", then mean/ci95 per metric, one row
  /// per (x, series).
  std::function<util::CsvTable(const MetricSweepCheckpoint&)> make_table;
};

struct MetricSweepOptions {
  RetryPolicy retry;
  /// Checkpoint file; empty disables checkpointing. The file is written
  /// atomically after every completed seed and removed after a fully
  /// successful sweep unless keep_checkpoint is set.
  std::string checkpoint_path;
  /// Resume from checkpoint_path if it exists. A checkpoint written
  /// under a different configuration refuses to load (fatal error).
  bool resume = false;
  bool keep_checkpoint = false;
  /// Final CSV destination (atomic write); empty = caller handles the
  /// table. On interruption the partial table is still flushed here.
  std::string out_path;
  /// Fault-drill/test hook, invoked after every checkpoint persist with
  /// (point_index, seeds_done, point_complete). The kill-and-resume
  /// tests SIGKILL from here.
  std::function<void(std::size_t, std::size_t, bool)> after_checkpoint;
};

struct SweepResult {
  /// One block of rows per completed point (see make_table).
  util::CsvTable table;
  bool interrupted = false;         ///< stopped on SIGINT/SIGTERM
  std::size_t points_total = 0;
  std::size_t points_completed = 0; ///< includes resumed points
  std::size_t points_resumed = 0;   ///< complete before this run started
  std::size_t seeds_resumed = 0;    ///< seeds restored from checkpoint
  std::size_t failed_seeds = 0;     ///< degraded, excluded from aggregates
  std::size_t timed_out_seeds = 0;  ///< subset of failed: watchdog fired
  std::size_t retried_seeds = 0;    ///< transient failures that retried

  /// 0 on success (even with degraded seeds), 3 when interrupted.
  [[nodiscard]] int ExitCode() const;
};

/// Runs the sweep. Throws HarnessError(kFatal) for unrecoverable
/// conditions (corrupt/mismatched checkpoint, programming errors);
/// everything else is absorbed into the result counters.
SweepResult RunMetricSweep(const MetricSweepSpec& spec,
                           const MetricSweepOptions& options);

/// A figure sweep: one experiment point per x value.
struct SweepSpec {
  std::string name;  ///< as MetricSweepSpec::name
  std::string x_name;
  std::vector<double> xs;
  std::function<ExperimentPoint(double)> make_point;
};

struct SweepOptions : MetricSweepOptions {
  ExperimentConfig config;
  /// Record scheduler runtimes as 0 so the output CSV is byte-identical
  /// across runs — required by the kill-and-resume golden test and any
  /// caller diffing CSVs. Folded into the checkpoint fingerprint.
  bool deterministic = false;
};

/// RunMetricSweep over config.algorithms × the AlgoSummary metrics; the
/// table is MakeSummaryTable/AppendSummaryRows'.
SweepResult RunExperimentSweep(const SweepSpec& spec,
                               const SweepOptions& options);

/// The harness flags every checkpointed sweep command shares:
/// --checkpoint --resume --keep-checkpoint --out --seed-deadline
/// --retries, and on request the --crash-after-point fault drill.
class SweepFlags {
 public:
  /// Registers the six harness flags on `cli`.
  explicit SweepFlags(util::CliParser& cli);
  /// Registers --crash-after-point N: SIGKILL this process right after
  /// point N's completing checkpoint lands, so kill-and-resume can be
  /// drilled from CI and the shell.
  void AddCrashDrill();
  /// After a successful cli.Parse(): copies the parsed flags into
  /// `options`.
  void Apply(MetricSweepOptions& options) const;

 private:
  util::CliParser& cli_;
  std::string& checkpoint_;
  bool& resume_;
  bool& keep_checkpoint_;
  std::string& out_;
  double& seed_deadline_;
  long long& retries_;
  long long* crash_after_point_ = nullptr;
};

}  // namespace fadesched::sim
