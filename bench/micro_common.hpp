// Shared scaffolding of the hand-timed microbenchmarks (micro_interference,
// micro_schedulers): a timing's spread over repetitions, JSON value text,
// and the host block every BENCH_*.json carries.
#pragma once

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mathx/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace fadesched::bench {

// Spread of one timing over the repetitions, in the unit it is reported in.
struct Spread {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
};

// Spread of a set of samples.
inline Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {mathx::Percentile(samples, 0.5), mathx::Percentile(samples, 0.1),
          mathx::Percentile(samples, 0.9)};
}

// Times `work` `reps` times; each sample is seconds × `scale`.
inline Spread Measure(int reps, double scale,
                      const std::function<void()>& work) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    work();
    samples.push_back(timer.Seconds() * scale);
  }
  return SpreadOf(std::move(samples));
}

// JSON value text: fixed six decimals for doubles, integers as is, and a
// Spread as its {median, p10, p90} object.
template <typename T>
std::string Value(const T& value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}
inline std::string Value(const Spread& s) {
  return "{\"median\": " + Value(s.median) + ", \"p10\": " + Value(s.p10) +
         ", \"p90\": " + Value(s.p90) + "}";
}

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#else
inline constexpr const char* kCompiler = "unknown";
#endif

// The CPU model from /proc/cpuinfo ("unknown" where that is unavailable).
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(util::Trim(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

// The "host" object: CPU model, logical CPUs and compiler.
inline std::string HostJson() {
  return "{\"cpu\": \"" + CpuModel() + "\", \"logical_cpus\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + kCompiler + "\"}";
}

}  // namespace fadesched::bench
