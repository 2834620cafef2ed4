// Shared scaffolding for the figure-reproduction binaries: CLI flags for
// scale control, the crash-safe sweep driver, and uniform printing.
//
// Every sweep bench runs through sim::RunExperimentSweep, so all of them
// inherit checkpoint/resume (--checkpoint/--resume), atomic CSV output
// (--out), per-seed watchdog deadlines (--seed-deadline), bounded retries
// (--retries), and graceful SIGINT/SIGTERM shutdown (exit code 3 after
// checkpointing). --crash-after-point is a fault drill: the process
// SIGKILLs itself right after the given point's checkpoint is persisted,
// so kill-and-resume can be exercised from CI and the shell.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace fadesched::bench {

struct FigureFlags {
  bool csv_only = false;    ///< suppress the pretty table
  sim::SweepOptions sweep;  ///< seeds, trials, threads and the harness
  int exit_code = 0;        ///< valid when ParseFigureFlags returns false
};

/// Registers the shared flags; returns false if the program should exit
/// (help requested or malformed input) with flags.exit_code as status.
inline bool ParseFigureFlags(int argc, char** argv, const std::string& name,
                             const std::string& description,
                             FigureFlags& flags) {
  util::CliParser cli(name, description);
  auto& seeds = cli.AddInt("seeds", 5, "topologies per point");
  auto& trials = cli.AddInt("trials", 1000,
                            "fading realizations per instance");
  auto& threads = cli.AddInt("threads", 0,
                             "simulator threads (0 = hardware)");
  auto& csv_only = cli.AddBool("csv-only", false,
                               "print raw CSV without the aligned table");
  sim::SweepFlags harness(cli);
  auto& deterministic = cli.AddBool(
      "deterministic", false,
      "record sched_ms as 0 so reruns produce byte-identical CSV");
  harness.AddCrashDrill();
  if (!cli.Parse(argc, argv)) {
    flags.exit_code = cli.UsageExitCode();
    return false;
  }
  flags.csv_only = csv_only;
  flags.sweep.config.num_seeds = static_cast<std::size_t>(seeds);
  flags.sweep.config.trials = static_cast<std::size_t>(trials);
  flags.sweep.config.threads =
      threads <= 0 ? 0u : static_cast<unsigned>(threads);
  flags.sweep.deterministic = deterministic;
  harness.Apply(flags.sweep);
  return true;
}

/// Runs one sweep through the crash-safe driver: for each x in `xs`,
/// builds the experiment point and appends one row per algorithm,
/// checkpointing as configured. `name` keys the checkpoint fingerprint.
inline sim::SweepResult RunSweep(
    const std::string& name, const std::string& x_name,
    const std::vector<double>& xs, const std::vector<std::string>& algorithms,
    const FigureFlags& flags,
    const std::function<sim::ExperimentPoint(double)>& make_point) {
  sim::SweepOptions options = flags.sweep;
  options.config.algorithms = algorithms;
  return sim::RunExperimentSweep({name, x_name, xs, make_point}, options);
}

/// Prints the result in both machine (CSV) and human (aligned) form, and
/// writes it atomically to `out` when given.
inline void EmitTable(const std::string& title, const util::CsvTable& table,
                      bool csv_only, const std::string& out) {
  std::printf("# %s\n", title.c_str());
  std::fputs(table.ToString().c_str(), stdout);
  if (!csv_only) {
    std::printf("\n%s\n", table.ToPrettyString().c_str());
  }
  if (!out.empty()) table.Save(out);
}

/// Back-compat shim for benches that build their own tables.
inline void PrintFigure(const std::string& title, const util::CsvTable& table,
                        bool csv_only) {
  EmitTable(title, table, csv_only, "");
}

/// Prints the sweep outcome and returns the bench's process exit code
/// (0, or 3 when the sweep was interrupted). Degraded seeds are reported
/// on stderr so a clean-looking CSV cannot hide them. The sweep driver
/// already wrote --out atomically.
inline int FinishFigure(const std::string& title,
                        const sim::SweepResult& result,
                        const FigureFlags& flags) {
  EmitTable(title, result.table, flags.csv_only, "");
  if (result.failed_seeds > 0 || result.timed_out_seeds > 0) {
    std::fprintf(stderr,
                 "warning: %zu seed(s) failed (%zu timed out) and were "
                 "excluded from the aggregates\n",
                 result.failed_seeds, result.timed_out_seeds);
  }
  if (result.interrupted) {
    std::fprintf(stderr,
                 "interrupted: %zu/%zu points complete; checkpoint %s\n",
                 result.points_completed, result.points_total,
                 flags.sweep.checkpoint_path.empty()
                     ? "disabled — rerun from scratch"
                     : flags.sweep.checkpoint_path.c_str());
  }
  return result.ExitCode();
}

}  // namespace fadesched::bench
