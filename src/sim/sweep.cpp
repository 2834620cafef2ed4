#include "sim/sweep.hpp"

#include <csignal>
#include <cstdio>
#include <exception>
#include <iterator>
#include <optional>
#include <utility>

#include "sched/registry.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"
#include "util/stopwatch.hpp"

namespace fadesched::sim {
namespace {

/// The default layout: x_name, "series", then mean/ci95 per metric.
util::CsvTable MetricTable(const MetricSweepSpec& spec,
                           const MetricSweepCheckpoint& checkpoint) {
  std::vector<std::string> header{spec.x_name, "series"};
  for (const std::string& metric : spec.metrics) {
    header.push_back(metric + "_mean");
    header.push_back(metric + "_ci95");
  }
  util::CsvTable table(header);
  for (const MetricPointCheckpoint& point : checkpoint.points) {
    if (!point.complete) continue;
    for (std::size_t k = 0; k < spec.series.size(); ++k) {
      util::CsvRowBuilder row(table);
      row.Add(point.x).Add(spec.series[k]);
      for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
        const mathx::RunningStats& stats =
            point.stats[k * spec.metrics.size() + m];
        row.Add(stats.Mean()).Add(stats.ConfidenceHalfWidth95());
      }
      row.Commit();
    }
  }
  return table;
}

/// The algorithms' summaries from the grid RunExperimentSweep
/// checkpoints: stats[a * kSummaryStats size + m].
std::vector<AlgoSummary> SummariesFromGrid(
    const std::vector<std::string>& algorithms,
    const std::vector<mathx::RunningStats>& stats) {
  constexpr std::size_t kMetrics = std::size(kSummaryStats);
  FS_CHECK_MSG(stats.size() == algorithms.size() * kMetrics,
               "summary grid does not match the algorithms");
  std::vector<AlgoSummary> summaries(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    summaries[a].algorithm = algorithms[a];
    for (std::size_t m = 0; m < kMetrics; ++m) {
      summaries[a].*kSummaryStats[m].field = stats[a * kMetrics + m];
    }
  }
  return summaries;
}

std::string DescribeException(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "(unknown)";
  }
}

}  // namespace

int SweepResult::ExitCode() const {
  return interrupted ? util::kExitInterrupted : util::kExitOk;
}

SweepResult RunMetricSweep(const MetricSweepSpec& spec,
                           const MetricSweepOptions& options) {
  FS_CHECK_MSG(!spec.xs.empty(), "metric sweep has no x values");
  FS_CHECK_MSG(!spec.series.empty(), "metric sweep has no series");
  FS_CHECK_MSG(!spec.metrics.empty(), "metric sweep has no metrics");
  FS_CHECK_MSG(static_cast<bool>(spec.run_seed), "metric sweep has no run_seed");
  FS_CHECK_MSG(spec.num_seeds > 0, "need at least one seed");
  FS_CHECK_MSG(options.retry.max_attempts > 0, "need at least one attempt");

  std::uint64_t fingerprint = FingerprintInit();
  fingerprint = FingerprintMix64(fingerprint,
                                 MetricSweepCheckpoint::kFormatVersion);
  fingerprint = FingerprintMixString(fingerprint, spec.name);
  fingerprint = FingerprintMix64(fingerprint, spec.xs.size());
  for (const double x : spec.xs) {
    fingerprint = FingerprintMixDouble(fingerprint, x);
  }
  fingerprint = FingerprintMix64(fingerprint, spec.series.size());
  for (const std::string& name : spec.series) {
    fingerprint = FingerprintMixString(fingerprint, name);
  }
  fingerprint = FingerprintMix64(fingerprint, spec.metrics.size());
  for (const std::string& name : spec.metrics) {
    fingerprint = FingerprintMixString(fingerprint, name);
  }
  fingerprint = FingerprintMix64(fingerprint, spec.num_seeds);
  fingerprint = FingerprintMix64(fingerprint, spec.config_fingerprint);

  const std::size_t grid = spec.series.size() * spec.metrics.size();
  const bool checkpointing = !options.checkpoint_path.empty();
  MetricSweepCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint;
  checkpoint.series = spec.series;
  checkpoint.metrics = spec.metrics;

  SweepResult result;
  result.points_total = spec.xs.size();

  if (checkpointing && options.resume &&
      MetricSweepCheckpoint::Load(options.checkpoint_path, fingerprint,
                                  checkpoint)) {
    FS_CHECK_MSG(checkpoint.points.size() == spec.xs.size(),
                 "checkpoint point count mismatch");
    FS_CHECK_MSG(checkpoint.series == spec.series &&
                     checkpoint.metrics == spec.metrics,
                 "checkpoint series/metric mismatch");
    for (const MetricPointCheckpoint& point : checkpoint.points) {
      if (point.complete) ++result.points_resumed;
      result.seeds_resumed += point.seeds_done;
      result.failed_seeds += point.failed_seeds;
      result.timed_out_seeds += point.timed_out_seeds;
    }
  }
  checkpoint.points.resize(spec.xs.size());
  // Size every point's stats grid up front: Serialize() refuses a
  // misshapen grid, and the first persist happens while later points are
  // still untouched.
  for (std::size_t p = 0; p < spec.xs.size(); ++p) {
    checkpoint.points[p].x = spec.xs[p];
    if (checkpoint.points[p].stats.empty()) {
      checkpoint.points[p].stats.resize(grid);
    }
  }

  const auto persist = [&](std::size_t point_index, bool point_complete) {
    if (!checkpointing) return;
    checkpoint.Save(options.checkpoint_path);
    if (options.after_checkpoint) {
      options.after_checkpoint(point_index,
                               checkpoint.points[point_index].seeds_done,
                               point_complete);
    }
  };

  util::ScopedSignalGuard signal_guard;

  // Lays out the completed points and writes --out; on interruption the
  // partial table lands there too.
  const auto finish = [&] {
    result.table = spec.make_table ? spec.make_table(checkpoint)
                                   : MetricTable(spec, checkpoint);
    if (!options.out_path.empty()) result.table.Save(options.out_path);
  };
  const auto interrupt = [&](std::size_t point_index) {
    persist(point_index, false);
    result.interrupted = true;
    finish();
    return result;
  };

  for (std::size_t p = 0; p < spec.xs.size(); ++p) {
    const double x = spec.xs[p];
    MetricPointCheckpoint& point_state = checkpoint.points[p];

    if (point_state.complete) {
      ++result.points_completed;
      std::fprintf(stderr, "[%s] %s=%g resumed from checkpoint\n",
                   spec.name.c_str(), spec.x_name.c_str(), x);
      continue;
    }

    util::Stopwatch point_watch;
    for (std::size_t s = point_state.seeds_done; s < spec.num_seeds; ++s) {
      if (util::ShutdownRequested()) return interrupt(p);

      bool seed_ok = false;
      for (std::size_t attempt = 1; attempt <= options.retry.max_attempts;
           ++attempt) {
        const util::Deadline deadline =
            util::Deadline::After(options.retry.seed_deadline_seconds);
        try {
          // One seed covers every series; values are held back until the
          // whole seed succeeds, so a mid-seed failure contributes
          // nothing to any accumulator.
          std::vector<std::vector<double>> seed_values(spec.series.size());
          for (std::size_t k = 0; k < spec.series.size(); ++k) {
            if (deadline.Expired()) {
              throw util::TimeoutError("seed " + std::to_string(s) +
                                       " exceeded its watchdog deadline");
            }
            if (util::ShutdownRequested()) {
              throw util::InterruptedError("shutdown requested");
            }
            seed_values[k] = spec.run_seed(p, k, s, deadline);
            FS_CHECK_MSG(seed_values[k].size() == spec.metrics.size(),
                         "run_seed returned the wrong number of metrics");
          }
          for (std::size_t k = 0; k < spec.series.size(); ++k) {
            for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
              point_state.stats[k * spec.metrics.size() + m].Add(
                  seed_values[k][m]);
            }
          }
          seed_ok = true;
          break;
        } catch (...) {
          const std::exception_ptr error = std::current_exception();
          const util::ErrorKind kind = util::ClassifyException(error);
          if (kind == util::ErrorKind::kFatal) throw;
          if (kind == util::ErrorKind::kInterrupted) return interrupt(p);
          if (kind == util::ErrorKind::kTimeout) {
            std::fprintf(stderr,
                         "[%s] %s=%g seed %zu timed out; recording as "
                         "failed\n",
                         spec.name.c_str(), spec.x_name.c_str(), x, s);
            ++result.timed_out_seeds;
            ++point_state.timed_out_seeds;
            break;  // never retry a watchdog timeout
          }
          // Transient: retry with the remaining budget, else degrade.
          const std::string what = DescribeException(error);
          if (attempt < options.retry.max_attempts) {
            std::fprintf(stderr,
                         "[%s] %s=%g seed %zu transient failure "
                         "(attempt %zu/%zu): %s\n",
                         spec.name.c_str(), spec.x_name.c_str(), x, s,
                         attempt, options.retry.max_attempts, what.c_str());
            ++result.retried_seeds;
          } else {
            std::fprintf(stderr,
                         "[%s] %s=%g seed %zu failed after %zu attempts: "
                         "%s\n",
                         spec.name.c_str(), spec.x_name.c_str(), x, s,
                         options.retry.max_attempts, what.c_str());
          }
        }
      }
      if (!seed_ok) {
        ++result.failed_seeds;
        ++point_state.failed_seeds;
      }
      point_state.seeds_done = s + 1;
      persist(p, false);
    }

    point_state.complete = true;
    persist(p, true);
    ++result.points_completed;
    std::fprintf(stderr, "[%s] %s=%g done in %.1fs\n", spec.name.c_str(),
                 spec.x_name.c_str(), x, point_watch.Seconds());
  }

  finish();
  if (checkpointing && !options.keep_checkpoint) {
    util::RemoveFile(options.checkpoint_path);
  }
  return result;
}

SweepResult RunExperimentSweep(const SweepSpec& spec,
                               const SweepOptions& options) {
  FS_CHECK_MSG(static_cast<bool>(spec.make_point), "sweep has no make_point");
  FS_CHECK_MSG(!options.config.algorithms.empty(), "no algorithms requested");

  // Materialize every point up front: the fingerprint must cover the full
  // sweep so resuming after editing the point lambda is refused.
  std::vector<ExperimentPoint> points;
  points.reserve(spec.xs.size());
  for (const double x : spec.xs) {
    points.push_back(spec.make_point(x));
    points.back().channel.Validate();
  }
  std::vector<sched::SchedulerPtr> schedulers;
  for (const std::string& name : options.config.algorithms) {
    schedulers.push_back(sched::MakeScheduler(name));
  }
  util::ThreadPool pool(options.config.threads);

  MetricSweepSpec metric;
  metric.name = spec.name;
  metric.x_name = spec.x_name;
  metric.xs = spec.xs;
  metric.series = options.config.algorithms;
  for (const SummaryStat& stat : kSummaryStats) {
    metric.metrics.emplace_back(stat.name);
  }
  metric.num_seeds = options.config.num_seeds;
  metric.config_fingerprint = FingerprintMix64(
      FingerprintSweep(spec.name, spec.xs, options.config, points),
      options.deterministic ? 1u : 0u);

  // Every algorithm of a seed schedules the same topology; build it once
  // per (point, seed).
  std::optional<std::pair<std::size_t, std::size_t>> topology_key;
  net::LinkSet topology;
  metric.run_seed = [&](std::size_t p, std::size_t a, std::size_t s,
                        const util::Deadline& deadline) {
    if (topology_key != std::make_pair(p, s)) {
      topology = SeedTopology(points[p], options.config, s);
      topology_key = std::make_pair(p, s);
    }
    std::vector<double> sample =
        RunExperimentSeed(topology, points[p], options.config,
                          *schedulers[a], a, s, deadline, pool);
    if (options.deterministic) sample.back() = 0.0;  // runtime_ms
    return sample;
  };
  metric.make_table = [&](const MetricSweepCheckpoint& checkpoint) {
    // FormatDouble of bit-identical doubles yields bit-identical cells, so
    // resumed points re-emit exactly the rows they first produced.
    util::CsvTable table = MakeSummaryTable(spec.x_name);
    for (const MetricPointCheckpoint& point : checkpoint.points) {
      if (!point.complete) continue;
      AppendSummaryRows(table, point.x,
                        SummariesFromGrid(checkpoint.series, point.stats));
    }
    return table;
  };
  return RunMetricSweep(metric, options);
}

SweepFlags::SweepFlags(util::CliParser& cli)
    : cli_(cli),
      checkpoint_(cli.AddString("checkpoint", "",
                                "checkpoint file (enables crash-safe resume)")),
      resume_(cli.AddBool("resume", false,
                          "resume from --checkpoint if it exists")),
      keep_checkpoint_(cli.AddBool("keep-checkpoint", false,
                                   "keep the checkpoint after success")),
      out_(cli.AddString("out", "", "write the CSV here (atomic)")),
      seed_deadline_(cli.AddDouble(
          "seed-deadline", 0.0,
          "per-seed watchdog deadline (seconds; 0 = off)")),
      retries_(cli.AddInt("retries", 1,
                          "retries per seed for transient failures")) {}

void SweepFlags::AddCrashDrill() {
  crash_after_point_ = &cli_.AddInt(
      "crash-after-point", -1,
      "fault drill: SIGKILL this process after point N checkpoints");
}

void SweepFlags::Apply(MetricSweepOptions& options) const {
  options.retry.max_attempts = static_cast<std::size_t>(retries_) + 1;
  options.retry.seed_deadline_seconds = seed_deadline_;
  options.checkpoint_path = checkpoint_;
  options.resume = resume_;
  options.keep_checkpoint = keep_checkpoint_;
  options.out_path = out_;
  if (crash_after_point_ != nullptr && *crash_after_point_ >= 0) {
    const auto crash_point = static_cast<std::size_t>(*crash_after_point_);
    options.after_checkpoint = [crash_point](std::size_t point,
                                             std::size_t /*seeds_done*/,
                                             bool complete) {
      if (complete && point == crash_point) {
        std::fprintf(stderr, "[drill] SIGKILL after point %zu checkpoint\n",
                     point);
        std::raise(SIGKILL);
      }
    };
  }
}

}  // namespace fadesched::sim
