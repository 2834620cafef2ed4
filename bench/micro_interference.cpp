// Microbenchmark: interference engine construction and factor queries,
// across instance sizes. Emits BENCH_interference.json with the dense
// InterferenceMatrix build (the exact solvers' O(N²) path) next to the
// kTables engine's O(N) table build, per-pair query costs on the
// calculator and tables backends, and a differential check over sampled
// entries: tables within the ULP tolerance of the reference calculator.
// A realization block times the §II fading
// draw in ns per draw at m = 20/40/80 — the batched Rayleigh draw at
// every SIMD tier the host supports, and sim::DrawRealization at the
// dispatched tier — and checks that the tiers' batched draws are
// bit-identical to scalar rng::Exponential. Every
// timing is reported as median, p10 and p90 over --reps repetitions, next
// to a host block. With --check the exit code reflects ONLY those
// differential and bit-identity checks — timings are reported but never
// gate anything. Run with FADESCHED_SIMD_LEVEL=scalar to measure the
// forced-scalar dispatch path end to end.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/batch_interference.hpp"
#include "channel/exponential_kernel.hpp"
#include "channel/interference.hpp"
#include "channel/simd_dispatch.hpp"
#include "mathx/stats.hpp"
#include "micro_common.hpp"
#include "mathx/ulp.hpp"
#include "net/scenario.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/greedy.hpp"
#include "sched/rle.hpp"
#include "sim/fading_models.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace {

using namespace fadesched;
using bench::Measure;
using bench::Spread;
using bench::Value;

// The ULP budget for the engine's expression vs the reference calculator;
// a real formula divergence shows up orders of magnitude above this.
constexpr std::uint64_t kUlpTolerance = 16;

net::LinkSet MakeInstance(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  net::UniformScenarioParams params;
  // Grow the region with sqrt(N) to hold density constant across sizes.
  params.region_size = 500.0 * std::sqrt(static_cast<double>(n) / 300.0);
  return net::MakeUniformScenario(n, params, gen);
}

using Fields = std::vector<std::pair<const char*, std::string>>;

// One named object inside a per-size entry, one field per line.
void Section(std::ostream& out, const char* name, const Fields& fields,
             bool last = false) {
  out << "      \"" << name << "\": {\n";
  for (std::size_t k = 0; k < fields.size(); ++k) {
    out << "        \"" << fields[k].first << "\": " << fields[k].second
        << (k + 1 < fields.size() ? ",\n" : "\n");
  }
  out << "      }" << (last ? "\n" : ",\n");
}

struct SizeReport {
  std::size_t n = 0;
  Spread serial_build_ms;  // dense InterferenceMatrix, serial
  Spread tables_build_ms;  // kTables engine (per-link tables)
  Spread calculator_ns_per_pair;
  Spread tables_ns_per_pair;
  Spread rle_calculator_ms;
  Spread rle_tables_ms;
  Spread greedy_calculator_ms;
  Spread greedy_tables_ms;
  std::uint64_t max_ulp = 0;
  std::size_t entries_checked = 0;
};

// The realization kernel at one schedule size m: ns per Rayleigh draw
// (m² uniforms and one batched exponential transform) for each tier the
// host supports, lowest tier first, and ns per draw of the whole
// sim::DrawRealization (draw, interference sums, decodes) at the
// dispatched tier, with the fraction of receivers that decoded.
struct RealizationReport {
  std::size_t m = 0;
  std::size_t trials = 0;
  std::vector<std::pair<channel::SimdLevel, Spread>> draw_ns;
  Spread realization_ns;
  double decode_rate = 0.0;
};

// Schedule sizes of the realization block: Figs. 5–6 schedule a few
// dozen links per slot.
constexpr std::size_t kRealizationSizes[] = {20, 40, 80};

std::vector<channel::SimdLevel> SupportedLevels() {
  std::vector<channel::SimdLevel> levels;
  for (const channel::SimdLevel level :
       {channel::SimdLevel::kScalar, channel::SimdLevel::kAvx2,
        channel::SimdLevel::kAvx512}) {
    if (level <= channel::DetectSimdLevel()) levels.push_back(level);
  }
  return levels;
}

// Times about 2·10⁶ draws per rep at each tier and through
// DrawRealization, and checks each tier's batched draw against m² scalar
// rng::Exponential calls bit for bit. Returns false on a mismatch.
bool MeasureRealization(std::size_t m, std::uint64_t seed, int reps,
                        RealizationReport& report) {
  const net::LinkSet links = MakeInstance(m, seed);
  std::vector<net::LinkId> ids(m);
  for (std::size_t i = 0; i < m; ++i) ids[i] = static_cast<net::LinkId>(i);
  channel::ChannelParams params;
  params.alpha = 3.0;
  const std::vector<double> mean = channel::MeanRxPowerTable(links, params, ids);
  const std::size_t n = m * m;
  report.m = m;
  report.trials = std::max<std::size_t>(1, 2000000 / n);
  const double ns_per_draw = 1e9 / static_cast<double>(report.trials * n);
  // Per-trial streams keyed like the Monte-Carlo simulator's.
  const auto trial_gen = [&](std::size_t t) {
    return rng::Xoshiro256(seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
  };
  bool identical = true;
  std::vector<double> z(n);
  for (const channel::SimdLevel level : SupportedLevels()) {
    report.draw_ns.emplace_back(
        level, Measure(reps, ns_per_draw, [&] {
          for (std::size_t t = 0; t < report.trials; ++t) {
            rng::Xoshiro256 gen = trial_gen(t);
            for (double& x : z) x = 1.0 - rng::UniformUnit(gen);
            channel::simd::ExponentialInPlace(level, mean.data(), z.data(), n);
          }
        }));
    rng::Xoshiro256 batch_gen(seed + m);
    rng::Xoshiro256 scalar_gen(seed + m);
    for (double& x : z) x = 1.0 - rng::UniformUnit(batch_gen);
    channel::simd::ExponentialInPlace(level, mean.data(), z.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      const double want = rng::Exponential(scalar_gen, mean[k]);
      identical = identical && std::memcmp(&z[k], &want, sizeof(double)) == 0;
    }
  }
  std::size_t decoded = 0;
  std::vector<double> power;
  report.realization_ns = Measure(reps, ns_per_draw, [&] {
    for (std::size_t t = 0; t < report.trials; ++t) {
      rng::Xoshiro256 gen = trial_gen(t);
      sim::DrawRealization(gen, mean, m, params, sim::FadingOptions{}, power,
                           [&](std::size_t, bool ok) { decoded += ok; });
    }
  });
  report.decode_rate = static_cast<double>(decoded) /
                       static_cast<double>(static_cast<std::size_t>(reps) *
                                           report.trials * m);
  return identical;
}

std::string Json(const std::vector<SizeReport>& reports,
                 const std::vector<RealizationReport>& realization,
                 std::uint64_t seed, long long reps, bool check_passed) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << "  \"benchmark\": \"micro_interference\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"ulp_tolerance\": " << kUlpTolerance << ",\n";
  out << "  \"simd_level\": \""
      << channel::SimdLevelName(channel::ActiveSimdLevel()) << "\",\n";
  out << "  \"host\": " << bench::HostJson() << ",\n";
  out << "  \"timing\": \"median, p10, p90 over reps\",\n";
  out << "  \"differential_check_passed\": "
      << (check_passed ? "true" : "false") << ",\n";
  out << "  \"realization\": {\n";
  out << "    \"unit\": \"ns per draw\",\n";
  out << "    \"draw\": \"m² uniforms + simd::ExponentialInPlace, per tier\",\n";
  out << "    \"realization\": \"sim::DrawRealization, Rayleigh, dispatched "
         "tier\",\n";
  out << "    \"sizes\": [\n";
  for (std::size_t k = 0; k < realization.size(); ++k) {
    const RealizationReport& r = realization[k];
    out << "      {\"m\": " << r.m << ", \"trials\": " << r.trials;
    for (const auto& [level, spread] : r.draw_ns) {
      out << ",\n       \"draw_" << channel::SimdLevelName(level)
          << "\": " << Value(spread);
    }
    out << ",\n       \"realization\": " << Value(r.realization_ns)
        << ",\n       \"decode_rate\": " << Value(r.decode_rate) << "}"
        << (k + 1 < realization.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  },\n";
  out << "  \"sizes\": [\n";
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const SizeReport& r = reports[k];
    out << "    {\n";
    out << "      \"n\": " << r.n << ",\n";
    Section(out, "build",
            {{"serial_ms", Value(r.serial_build_ms)},
             {"tables_ms", Value(r.tables_build_ms)}});
    Section(out, "query",
            {{"calculator_ns_per_pair", Value(r.calculator_ns_per_pair)},
             {"tables_ns_per_pair", Value(r.tables_ns_per_pair)}});
    Section(out, "schedule",
            {{"rle_calculator_ms", Value(r.rle_calculator_ms)},
             {"rle_tables_ms", Value(r.rle_tables_ms)},
             {"greedy_calculator_ms", Value(r.greedy_calculator_ms)},
             {"greedy_tables_ms", Value(r.greedy_tables_ms)}});
    Section(out, "check",
            {{"max_ulp", Value(r.max_ulp)},
             {"entries_checked", Value(r.entries_checked)}},
            /*last=*/true);
    out << "    }" << (k + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("micro_interference",
                      "Interference engine build/query microbenchmark; "
                      "writes BENCH_interference.json");
  std::string& sizes_flag =
      cli.AddString("sizes", "100,500,2000,4000", "comma-separated N values");
  long long& reps = cli.AddInt(
      "reps", 5, "repetitions per timing (median, p10 and p90 are reported)");
  long long& seed = cli.AddInt("seed", 1234, "scenario seed");
  std::string& out_path =
      cli.AddString("out", "BENCH_interference.json", "output JSON path");
  bool& check_only = cli.AddBool(
      "check", false,
      "exit nonzero iff the differential ULP check or the realization "
      "tiers' bit-identity check fails (never on timing)");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();
  FS_CHECK_MSG(reps >= 1, "--reps must be >= 1");
  const int rep_count = static_cast<int>(reps);

  channel::ChannelParams params;
  params.alpha = 3.0;

  std::vector<RealizationReport> realization;
  bool check_passed = true;
  for (const std::size_t m : kRealizationSizes) {
    RealizationReport report;
    if (!MeasureRealization(m, static_cast<std::uint64_t>(seed), rep_count,
                            report)) {
      check_passed = false;
      std::cerr << "REALIZATION MISMATCH at m=" << m
                << ": a SIMD tier's batched draw differs from "
                   "rng::Exponential\n";
    }
    std::cerr << "realization m=" << m << " ns/draw";
    for (const auto& [level, spread] : report.draw_ns) {
      std::cerr << " draw_" << channel::SimdLevelName(level) << "="
                << spread.median;
    }
    std::cerr << " realization=" << report.realization_ns.median << "\n";
    realization.push_back(std::move(report));
  }

  std::vector<SizeReport> reports;
  for (const std::string& token : util::Split(sizes_flag, ',')) {
    const std::size_t n = static_cast<std::size_t>(std::stoull(token));
    const net::LinkSet links =
        MakeInstance(n, static_cast<std::uint64_t>(seed));
    SizeReport report;
    report.n = n;

    report.serial_build_ms = Measure(rep_count, 1e3, [&] {
      const channel::InterferenceMatrix matrix(links, params);
    });
    report.tables_build_ms = Measure(rep_count, 1e3, [&] {
      const channel::InterferenceEngine engine(links, params, {});
    });

    // Query timings: random pairs through each backend. The sink defeats
    // dead-code elimination.
    const channel::InterferenceCalculator calc(links, params);
    const channel::InterferenceEngine tables(links, params, {});
    const std::size_t pairs = std::min<std::size_t>(n * n, 1u << 20);
    std::vector<std::uint32_t> idx(2 * pairs);
    rng::Xoshiro256 pair_gen(static_cast<std::uint64_t>(seed) ^ n);
    for (auto& v : idx) {
      v = static_cast<std::uint32_t>(pair_gen.Next() % n);
    }
    double sink = 0.0;
    const double ns_per_pair = 1e9 / static_cast<double>(pairs);
    const auto time_queries = [&](const auto& factor_fn) {
      return Measure(rep_count, ns_per_pair, [&] {
        for (std::size_t k = 0; k < pairs; ++k) {
          sink += factor_fn(idx[2 * k], idx[2 * k + 1]);
        }
      });
    };
    report.calculator_ns_per_pair = time_queries(
        [&](std::size_t i, std::size_t j) { return calc.Factor(i, j); });
    report.tables_ns_per_pair = time_queries(
        [&](std::size_t i, std::size_t j) { return tables.Factor(i, j); });
    if (sink == 0.12345) std::cerr << "";  // keep `sink` observable

    // End-to-end schedule timings of the two engine-heavy schedulers on
    // the reference path vs the fast tables (micro_schedulers has the
    // full scheduler × backend grid).
    const auto time_schedule = [&](const auto& make_scheduler) {
      return Measure(rep_count, 1e3, [&] {
        sink += static_cast<double>(
            make_scheduler()->Schedule(links, params).schedule.size());
      });
    };
    channel::EngineOptions calc_backend;
    calc_backend.backend = channel::FactorBackend::kCalculator;
    report.rle_calculator_ms = time_schedule([&] {
      sched::RleOptions options;
      options.interference = calc_backend;
      return std::make_unique<sched::RleScheduler>(options);
    });
    report.rle_tables_ms = time_schedule(
        [&] { return std::make_unique<sched::RleScheduler>(); });
    report.greedy_calculator_ms = time_schedule([&] {
      sched::FadingGreedyOptions options;
      options.interference = calc_backend;
      return std::make_unique<sched::FadingGreedyScheduler>(options);
    });
    report.greedy_tables_ms = time_schedule(
        [&] { return std::make_unique<sched::FadingGreedyScheduler>(); });

    // Differential check over sampled entries (full coverage for small
    // N): tables within kUlpTolerance of the reference calculator.
    const std::size_t samples = std::min<std::size_t>(n * n, 1u << 18);
    rng::Xoshiro256 sample_gen(static_cast<std::uint64_t>(seed) + n);
    for (std::size_t k = 0; k < samples; ++k) {
      const std::size_t i = sample_gen.Next() % n;
      const std::size_t j = sample_gen.Next() % n;
      report.max_ulp = std::max(
          report.max_ulp, mathx::UlpDistance(tables.Factor(i, j),
                                             calc.Factor(i, j)));
    }
    report.entries_checked = samples;
    if (report.max_ulp > kUlpTolerance) {
      check_passed = false;
      std::cerr << "DIFFERENTIAL MISMATCH at n=" << n
                << ": max ULP distance " << report.max_ulp << " > "
                << kUlpTolerance << "\n";
    }
    reports.push_back(report);
    std::cerr << "n=" << n << " median serial="
              << report.serial_build_ms.median
              << "ms tables=" << report.tables_build_ms.median
              << "ms max_ulp=" << report.max_ulp << "\n";
  }

  util::AtomicWriteFile(
      out_path, Json(reports, realization, static_cast<std::uint64_t>(seed),
                     reps, check_passed));
  std::cout << "wrote " << out_path << "\n";
  if (check_only && !check_passed) return 1;
  return 0;
}
