// perfbench_driver — measures one workload against fadesched_cli and
// prints one JSON result line. Normally started by perfbench/run.py:
//
//   perfbench_driver --workload warm_replay --seed 3 --seconds 10 --trace 0
//
// Exit codes: 0 every check passed; 1 a check failed (the result line is
// still printed, with "correct": false); 2 usage or set-up error.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "process.hpp"

namespace perfbench {

void Result::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Note(const char* format, ...) {
  std::fputs("perfbench: ", stderr);
  va_list list;
  va_start(list, format);
  std::vfprintf(stderr, format, list);
  va_end(list);
  std::fputc('\n', stderr);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

void PrintResult(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // JSON has no inf/nan; a failed run may divide by zero counts.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<warm_replay|cold_unique|paper_compare|fig_sweep> --seed N "
               "--seconds S --trace 0|1 [--run-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.cli = PERFBENCH_CLI;
  args.run_dir = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (::access(args.cli.c_str(), X_OK) != 0) {
    return Usage(("fadesched_cli not found at " + args.cli).c_str());
  }
  ::mkdir(args.run_dir.c_str(), 0755);

  // Hard stop well inside the 180 s run limit: kill every spawned process
  // group and exit without a result line.
  ArmWatchdog(170);
  try {
    Result result;
    if (args.workload == "fig_sweep") {
      result = RunSweepWorkload(args);
    } else if (args.workload == "warm_replay" ||
               args.workload == "cold_unique" ||
               args.workload == "paper_compare") {
      result = RunServedWorkload(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
    PrintResult(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: error: %s\n", e.what());
    KillAllSpawned();
    return 2;
  }
}
