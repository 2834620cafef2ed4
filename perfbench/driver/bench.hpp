// Shared types of the benchmark driver: command-line arguments, the
// result record printed as the final JSON line, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The schedulers of the paper's comparison (Figs. 5-6) plus the
/// fading-aware greedy baseline, in the order paper_compare sends them.
inline const std::vector<std::string> kSchedulers{
    "rle", "ldp", "approx_logn", "approx_diversity", "fading_greedy"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;      ///< path of the fadesched_cli binary under test
  std::string run_dir;  ///< scratch directory for sockets, checkpoints, spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `correct` turns false on the first failed check;
/// perfbench_driver then exits non-zero after printing the record.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// Diagnostic line on stderr (stdout carries only the result).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Exact q-quantile (0 ≤ q ≤ 1) of raw samples, linear interpolation
/// between closest ranks. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

Result RunServedWorkload(const Args& args);
Result RunSweepWorkload(const Args& args);

}  // namespace perfbench
