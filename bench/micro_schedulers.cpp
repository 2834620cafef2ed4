// Microbenchmark: scheduler time per interference backend (reference
// calculator vs precomputed tables), and for the
// schedulers built on the Corollary 3.1 accumulator (rle,
// approx_diversity, fading_greedy) per SIMD tier. Emits
// BENCH_schedulers.json with every timing as median, p10 and p90 over
// --reps repetitions next to a host block.
//
// A third section times sched::EliminationScan alone, the loop behind
// rle and approx_diversity, on the serving benchmark's layout (uniform on
// the default 500×500 region), so its cost is read without the engine
// build or the result bookkeeping around it.
//
// Every run re-verifies two differential guarantees: each scheduler emits
// the identical schedule on every backend, and each accumulator scheduler
// the identical schedule at every tier the host supports (pinned with
// channel::ScopedSimdLevel, so the tiers are covered whatever
// FADESCHED_SIMD_LEVEL says). With --check the exit code reflects only
// those, never a timing.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "channel/batch_interference.hpp"
#include "channel/simd_dispatch.hpp"
#include "micro_common.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/approx_diversity.hpp"
#include "sched/approx_logn.hpp"
#include "sched/constants.hpp"
#include "sched/elimination.hpp"
#include "sched/greedy.hpp"
#include "sched/ldp.hpp"
#include "sched/rle.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

namespace {

using namespace fadesched;
using bench::Measure;
using bench::Spread;
using bench::Value;

net::LinkSet MakeInstance(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  net::UniformScenarioParams params;
  params.region_size = 500.0 * std::sqrt(static_cast<double>(n) / 300.0);
  return net::MakeUniformScenario(n, params, gen);
}

std::unique_ptr<sched::Scheduler> MakeNamed(
    const std::string& name, const channel::EngineOptions& engine) {
  if (name == "rle") {
    sched::RleOptions options;
    options.interference = engine;
    return std::make_unique<sched::RleScheduler>(options);
  }
  if (name == "fading_greedy") {
    sched::FadingGreedyOptions options;
    options.interference = engine;
    return std::make_unique<sched::FadingGreedyScheduler>(options);
  }
  if (name == "ldp") {
    sched::LdpOptions options;
    options.interference = engine;
    return std::make_unique<sched::LdpScheduler>(options);
  }
  if (name == "approx_logn") {
    sched::ApproxLogNOptions options;
    options.interference = engine;
    return std::make_unique<sched::ApproxLogNScheduler>(options);
  }
  if (name == "approx_diversity") {
    sched::ApproxDiversityOptions options;
    options.interference = engine;
    return std::make_unique<sched::ApproxDiversityScheduler>(options);
  }
  std::cerr << "unknown scheduler: " << name << "\n";
  std::exit(2);
}

bool UsesAccumulator(const std::string& name) {
  return name == "rle" || name == "approx_diversity" ||
         name == "fading_greedy";
}

struct Timing {
  std::string label;  // backend or tier
  Spread ms;
};

struct SchedulerReport {
  std::string name;
  std::size_t n = 0;
  std::size_t scheduled = 0;
  bool agree = true;
  std::vector<Timing> timings;
};

std::string TimingsJson(const std::vector<Timing>& timings) {
  std::string out = "{";
  for (std::size_t t = 0; t < timings.size(); ++t) {
    out += "\"" + timings[t].label + "\": " + Value(timings[t].ms) +
           (t + 1 < timings.size() ? ",\n                     " : "");
  }
  return out + "}";
}

void RunsJson(std::ostream& out, const std::vector<SchedulerReport>& reports,
              const char* agree_key) {
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const SchedulerReport& r = reports[k];
    out << "      {\"scheduler\": \"" << r.name << "\", \"n\": " << r.n
        << ", \"links_scheduled\": " << r.scheduled << ", \"" << agree_key
        << "\": " << (r.agree ? "true" : "false") << ",\n"
        << "       \"timings_ms\": " << TimingsJson(r.timings) << "}"
        << (k + 1 < reports.size() ? "," : "") << "\n";
  }
}

struct ScanReport {
  std::string name;
  std::size_t n = 0;
  double mean_picks = 0.0;
  Spread ms;
};

// The scan on kScanSeeds layouts of n links from the benchmark's generator
// (seeds seed, seed+1, ...), each with its own prebuilt kTables engine, at
// the dispatched tier. One rep scans every layout once; its sample is the
// mean time per scan. The rule is the one the scheduler derives at
// uniform power.
constexpr std::uint64_t kScanSeeds = 8;

ScanReport TimeScan(const std::string& name, std::size_t n,
                    std::uint64_t seed, int reps,
                    const channel::ChannelParams& params) {
  std::vector<net::LinkSet> layouts;
  layouts.reserve(kScanSeeds);  // engines point at these LinkSets
  std::vector<std::unique_ptr<channel::InterferenceEngine>> engines;
  for (std::uint64_t s = 0; s < kScanSeeds; ++s) {
    rng::Xoshiro256 gen(seed + s);
    layouts.push_back(
        net::MakeUniformScenario(n, net::UniformScenarioParams{}, gen));
    engines.push_back(
        std::make_unique<channel::InterferenceEngine>(layouts.back(), params));
  }
  const bool rle = name == "rle";
  const double c2 = rle ? sched::RleOptions{}.c2
                        : sched::ApproxDiversityOptions{}.c2;
  const sched::EliminationRule rule =
      rle ? sched::EliminationRule{
                channel::IncrementalFeasibility::Quantity::kFactor,
                sched::RleC1(params, c2), c2 * params.GammaEpsilon()}
          : sched::EliminationRule{
                channel::IncrementalFeasibility::Quantity::kAffectance,
                sched::ApproxDiversityC1(params, c2), c2};
  std::size_t picks = 0;
  ScanReport report{name, n, 0.0, {}};
  report.ms = Measure(reps, 1e3 / static_cast<double>(kScanSeeds), [&] {
    picks = 0;
    for (std::uint64_t s = 0; s < kScanSeeds; ++s) {
      picks += sched::EliminationScan(layouts[s], *engines[s], rule).size();
    }
  });
  report.mean_picks =
      static_cast<double>(picks) / static_cast<double>(kScanSeeds);
  return report;
}

std::string Json(const std::vector<SchedulerReport>& backends,
                 const std::vector<SchedulerReport>& tiers,
                 const std::vector<ScanReport>& scans,
                 std::uint64_t seed, long long reps, bool check_passed) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"micro_schedulers\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"simd_level\": \""
      << channel::SimdLevelName(channel::ActiveSimdLevel()) << "\",\n";
  out << "  \"host\": " << bench::HostJson() << ",\n";
  out << "  \"timing\": \"median, p10, p90 over reps\",\n";
  out << "  \"differential_check_passed\": "
      << (check_passed ? "true" : "false") << ",\n";
  out << "  \"tiers\": {\n";
  out << "    \"what\": \"accumulator schedulers on a prebuilt, shared "
         "kTables engine (as the serving cache supplies it), per SIMD "
         "tier\",\n";
  out << "    \"runs\": [\n";
  RunsJson(out, tiers, "tiers_agree");
  out << "    ]\n";
  out << "  },\n";
  out << "  \"scan\": {\n";
  out << "    \"what\": \"sched::EliminationScan alone on the serving "
         "benchmark's layout (n links uniform on a 500x500 region, lengths "
         "U[5,20]), prebuilt kTables engine, dispatched tier; each rep is "
         "the mean over "
      << kScanSeeds << " layouts (seeds seed.." << seed + kScanSeeds - 1
      << ")\",\n";
  out << "    \"runs\": [\n";
  for (std::size_t k = 0; k < scans.size(); ++k) {
    const ScanReport& r = scans[k];
    out << "      {\"scheduler\": \"" << r.name << "\", \"n\": " << r.n
        << ", \"mean_picks\": " << Value(r.mean_picks)
        << ", \"timings_ms\": " << Value(r.ms) << "}"
        << (k + 1 < scans.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  },\n";
  out << "  \"backends\": {\n";
  out << "    \"what\": \"whole Schedule() calls, engine build included, at "
         "the dispatched tier\",\n";
  out << "    \"runs\": [\n";
  RunsJson(out, backends, "backends_agree");
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("micro_schedulers",
                      "Per-backend and per-tier scheduler timings + "
                      "differential verification; writes "
                      "BENCH_schedulers.json");
  std::string& sizes_flag =
      cli.AddString("sizes", "100,600,2000", "comma-separated N values");
  std::string& schedulers_flag = cli.AddString(
      "schedulers", "rle,fading_greedy,ldp,approx_logn,approx_diversity",
      "comma-separated scheduler names");
  long long& reps = cli.AddInt(
      "reps", 5, "repetitions per timing (median, p10 and p90 are reported)");
  long long& seed = cli.AddInt("seed", 1234, "scenario seed");
  std::string& out_path =
      cli.AddString("out", "BENCH_schedulers.json", "output JSON path");
  bool& check_only = cli.AddBool(
      "check", false,
      "exit nonzero iff a backend or a tier changes a schedule (never on "
      "timing)");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();
  FS_CHECK_MSG(reps >= 1, "--reps must be >= 1");
  const int rep_count = static_cast<int>(reps);

  channel::ChannelParams params;
  params.alpha = 3.0;

  struct Backend {
    const char* label;
    channel::FactorBackend backend;
  };
  const Backend backends[] = {
      {"calculator", channel::FactorBackend::kCalculator},
      {"tables", channel::FactorBackend::kTables},
  };
  std::vector<channel::SimdLevel> levels{channel::SimdLevel::kScalar};
  for (const channel::SimdLevel level :
       {channel::SimdLevel::kAvx2, channel::SimdLevel::kAvx512}) {
    if (channel::ResolveSimdLevel(level) == level) levels.push_back(level);
  }

  std::vector<SchedulerReport> backend_reports;
  std::vector<SchedulerReport> tier_reports;
  std::vector<ScanReport> scan_reports;
  bool check_passed = true;
  for (const std::string& token : util::Split(sizes_flag, ',')) {
    const std::size_t n = static_cast<std::size_t>(std::stoull(token));
    const net::LinkSet links =
        MakeInstance(n, static_cast<std::uint64_t>(seed));
    for (const std::string& name : util::Split(schedulers_flag, ',')) {
      SchedulerReport report;
      report.name = name;
      report.n = n;
      net::Schedule reference;
      for (const Backend& b : backends) {
        channel::EngineOptions engine;
        engine.backend = b.backend;
        const auto scheduler = MakeNamed(name, engine);
        net::Schedule schedule;
        report.timings.push_back({b.label, Measure(rep_count, 1e3, [&] {
                                    schedule =
                                        scheduler->Schedule(links, params)
                                            .schedule;
                                  })});
        if (b.backend == channel::FactorBackend::kCalculator) {
          reference = schedule;
          report.scheduled = schedule.size();
        } else if (schedule != reference) {
          report.agree = false;
          check_passed = false;
          std::cerr << "DIFFERENTIAL MISMATCH: " << name << " n=" << n
                    << " backend=" << b.label
                    << " diverged from calculator path\n";
        }
      }
      std::cerr << name << " n=" << n << " scheduled=" << report.scheduled
                << (report.agree ? "" : " MISMATCH") << "\n";
      backend_reports.push_back(std::move(report));

      if (!UsesAccumulator(name)) continue;
      SchedulerReport tiers;
      tiers.name = name;
      tiers.n = n;
      channel::EngineOptions engine;
      engine.shared =
          std::make_shared<const channel::InterferenceEngine>(links, params);
      const auto scheduler = MakeNamed(name, engine);
      for (const channel::SimdLevel level : levels) {
        const channel::ScopedSimdLevel pin(level);
        net::Schedule schedule;
        tiers.timings.push_back(
            {channel::SimdLevelName(level), Measure(rep_count, 1e3, [&] {
               schedule = scheduler->Schedule(links, params).schedule;
             })});
        if (level == channel::SimdLevel::kScalar) {
          reference = schedule;
          tiers.scheduled = schedule.size();
        } else if (schedule != reference) {
          tiers.agree = false;
          check_passed = false;
          std::cerr << "DIFFERENTIAL MISMATCH: " << name << " n=" << n
                    << " tier=" << channel::SimdLevelName(level)
                    << " diverged from the scalar tier\n";
        }
      }
      tier_reports.push_back(std::move(tiers));

      if (name == "rle" || name == "approx_diversity") {
        scan_reports.push_back(TimeScan(
            name, n, static_cast<std::uint64_t>(seed), rep_count, params));
      }
    }
  }

  util::AtomicWriteFile(out_path,
                        Json(backend_reports, tier_reports, scan_reports,
                             static_cast<std::uint64_t>(seed), reps,
                             check_passed));
  std::cout << "wrote " << out_path << "\n";
  if (check_only && !check_passed) return 1;
  return 0;
}
