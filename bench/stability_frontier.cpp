// Stability-frontier bench: the empirically measured λ* (largest stable
// per-link arrival rate) per scheduler × α × fading model, plus delivery
// delay percentiles as load approaches each frontier. Emits
// BENCH_stability.json with a host block.
//
// Both measurement grids run on the crash-safe RunMetricSweep harness
// (checkpoint/resume via --checkpoint/--resume, atomic --out-csv, exit
// code 3 on SIGINT/SIGTERM), and the JSON is assembled from the sweep
// tables so a resumed run produces the same file as an uninterrupted one.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "channel/params.hpp"
#include "dynamics/slotted_sim.hpp"
#include "dynamics/stability.hpp"
#include "mathx/stats.hpp"
#include "micro_common.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

namespace {

using namespace fadesched;

std::vector<double> ParseDoubleList(const std::string& text,
                                    const char* flag) {
  std::vector<double> values;
  for (const std::string& token : util::Split(text, ',')) {
    const auto value = util::ParseDouble(util::Trim(token));
    FS_CHECK_MSG(value.has_value(), std::string("malformed ") + flag +
                                        " value: '" + token + "'");
    values.push_back(*value);
  }
  FS_CHECK_MSG(!values.empty(), std::string(flag) + " must be non-empty");
  return values;
}

std::vector<std::string> ParseNameList(const std::string& text,
                                       const char* flag) {
  std::vector<std::string> names;
  for (const std::string& token : util::Split(text, ',')) {
    const std::string name(util::Trim(token));
    if (!name.empty()) names.push_back(name);
  }
  FS_CHECK_MSG(!names.empty(), std::string(flag) + " must be non-empty");
  return names;
}

sim::FadingOptions FadingByName(const std::string& name) {
  sim::FadingOptions fading;
  if (name == "rayleigh") {
    fading.model = sim::FadingModel::kRayleigh;
  } else if (name == "nakagami") {
    fading.model = sim::FadingModel::kNakagami;
    fading.nakagami_m = 2.0;
  } else if (name == "shadowed") {
    fading.model = sim::FadingModel::kShadowedRayleigh;
  } else {
    FS_CHECK_MSG(false, "unknown fading model '" + name +
                            "' (rayleigh | nakagami | shadowed)");
  }
  return fading;
}

std::string Num(double value) {
  std::ostringstream os;
  os.precision(10);
  os << value;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("stability_frontier",
                      "per-scheduler stability frontier (lambda*) and delay "
                      "percentiles; writes BENCH_stability.json");
  auto& num_links = cli.AddInt("links", 120, "links in the universe");
  auto& num_slots = cli.AddInt("slots", 600, "slots per stability probe");
  auto& seed = cli.AddInt("seed", 5, "topology + simulation seed");
  auto& schedulers_text = cli.AddString(
      "schedulers", "ldp,rle,fading_greedy,approx_diversity",
      "comma-separated schedulers");
  auto& alphas_text = cli.AddString("alphas", "2.5,3",
                                    "comma-separated path-loss exponents");
  auto& fadings_text = cli.AddString(
      "fadings", "rayleigh,nakagami",
      "comma-separated fading models (rayleigh | nakagami | shadowed)");
  auto& family_text = cli.AddString(
      "arrivals", "bernoulli", "arrival family for the frontier probes");
  auto& iterations =
      cli.AddInt("iterations", 6, "bisection refinements per frontier");
  auto& lambda_hi =
      cli.AddDouble("lambda-hi", 0.3, "initial upper arrival-rate bracket");
  auto& fractions_text = cli.AddString(
      "load-fractions", "0.5,0.8,0.95",
      "delay percentiles measured at these fractions of each lambda*");
  auto& checkpoint = cli.AddString(
      "checkpoint", "", "checkpoint file prefix (enables crash-safe resume)");
  auto& resume =
      cli.AddBool("resume", false, "resume from --checkpoint if it exists");
  auto& out_csv = cli.AddString(
      "out-csv", "", "also write the raw sweep tables here (atomic; prefix)");
  auto& out_path =
      cli.AddString("out", "BENCH_stability.json", "output JSON path");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  const auto schedulers = ParseNameList(schedulers_text, "--schedulers");
  const auto alphas = ParseDoubleList(alphas_text, "--alphas");
  const auto fadings = ParseNameList(fadings_text, "--fadings");
  const auto fractions = ParseDoubleList(fractions_text, "--load-fractions");
  dynamics::ArrivalFamily family = dynamics::ArrivalFamily::kBernoulli;
  FS_CHECK_MSG(dynamics::ParseArrivalFamily(family_text, family),
               "unknown --arrivals family '" + family_text + "'");

  // One fixed universe per α (geometry is seed-pure; α only changes the
  // channel), so frontiers are comparable across schedulers.
  rng::Xoshiro256 topo_gen(static_cast<std::uint64_t>(seed));
  const net::LinkSet universe = net::MakeUniformScenario(
      static_cast<std::size_t>(num_links), {}, topo_gen);

  dynamics::DynamicsOptions base;
  base.num_slots = static_cast<std::size_t>(num_slots);
  base.warmup_slots = base.num_slots / 5;
  base.seed = static_cast<std::uint64_t>(seed);
  base.arrivals.family = family;

  dynamics::FrontierOptions frontier_options;
  frontier_options.lambda_hi = lambda_hi;
  frontier_options.iterations = static_cast<std::size_t>(iterations);

  // --- Grid 1: the frontier, on the crash-safe metric sweep. -------------
  sim::MetricSweepSpec frontier_spec;
  frontier_spec.name = "stability_frontier";
  frontier_spec.x_name = "alpha";
  frontier_spec.xs = alphas;
  for (const std::string& scheduler : schedulers) {
    for (const std::string& fading : fadings) {
      frontier_spec.series.push_back(scheduler + "@" + fading);
    }
  }
  frontier_spec.metrics = {"lambda_star", "lambda_lo", "lambda_hi",
                           "saturated", "probes"};
  frontier_spec.num_seeds = 1;
  {
    std::uint64_t h = sim::FingerprintInit();
    h = sim::FingerprintMix64(h, static_cast<std::uint64_t>(num_links));
    h = sim::FingerprintMix64(h, base.num_slots);
    h = sim::FingerprintMix64(h, base.seed);
    h = sim::FingerprintMix64(h, frontier_options.iterations);
    h = sim::FingerprintMixDouble(h, frontier_options.lambda_hi);
    h = sim::FingerprintMixString(h, family_text);
    frontier_spec.config_fingerprint = h;
  }
  const std::size_t num_fadings = fadings.size();
  frontier_spec.run_seed = [&](std::size_t point, std::size_t series,
                               std::size_t /*seed_index*/,
                               const util::Deadline& /*deadline*/) {
    channel::ChannelParams params;
    params.alpha = alphas[point];
    dynamics::DynamicsOptions options = base;
    options.fading = FadingByName(fadings[series % num_fadings]);
    const std::string& scheduler = schedulers[series / num_fadings];
    const dynamics::FrontierResult frontier = dynamics::FindStabilityFrontier(
        universe, params, scheduler, options, frontier_options);
    return std::vector<double>{
        frontier.lambda_star, frontier.lambda_lo, frontier.lambda_hi,
        frontier.saturated ? 1.0 : 0.0,
        static_cast<double>(frontier.probes)};
  };

  sim::MetricSweepOptions frontier_sweep;
  if (!checkpoint.empty()) {
    frontier_sweep.checkpoint_path = checkpoint + ".frontier";
  }
  frontier_sweep.resume = resume;
  if (!out_csv.empty()) frontier_sweep.out_path = out_csv + ".frontier.csv";
  std::fprintf(stderr, "[stability] frontier grid: %zu series x %zu alphas\n",
               frontier_spec.series.size(), frontier_spec.xs.size());
  const sim::SweepResult frontier_result =
      sim::RunMetricSweep(frontier_spec, frontier_sweep);
  if (frontier_result.interrupted) return frontier_result.ExitCode();

  // lambda* per (series, alpha), pulled from the sweep table so resumed
  // runs see identical values.
  const auto frontier_cell = [&](const std::string& series, double alpha,
                                 const std::string& metric) {
    const util::CsvTable& table = frontier_result.table;
    for (std::size_t row = 0; row < table.NumRows(); ++row) {
      if (table.Cell(row, "series") == series &&
          table.CellAsDouble(row, "alpha") == alpha) {
        return table.CellAsDouble(row, metric + "_mean");
      }
    }
    FS_CHECK_MSG(false, "frontier table missing " + series);
    return 0.0;
  };

  // --- Grid 2: delay percentiles vs load fraction of each lambda*. -------
  sim::MetricSweepSpec delay_spec;
  delay_spec.name = "stability_delay_vs_load";
  delay_spec.x_name = "load_fraction";
  delay_spec.xs = fractions;
  delay_spec.series = frontier_spec.series;  // scheduler@fading
  delay_spec.metrics = {"offered_load",  "mean_backlog", "mean_delay",
                        "delay_p50",     "delay_p95",    "delay_p99",
                        "failure_rate_pct"};
  delay_spec.num_seeds = 1;
  delay_spec.config_fingerprint =
      sim::FingerprintMix64(frontier_spec.config_fingerprint, 0x9d1a);
  // Delay runs use the last α (the paper's default α = 3 with the stock
  // flag values).
  const double delay_alpha = alphas.back();
  delay_spec.run_seed = [&](std::size_t point, std::size_t series,
                            std::size_t /*seed_index*/,
                            const util::Deadline& /*deadline*/) {
    const double lambda_star =
        frontier_cell(delay_spec.series[series], delay_alpha, "lambda_star");
    channel::ChannelParams params;
    params.alpha = delay_alpha;
    dynamics::DynamicsOptions options = base;
    options.fading = FadingByName(fadings[series % num_fadings]);
    options.arrivals.rate = std::max(1e-4, lambda_star * fractions[point]);
    const std::string& scheduler = schedulers[series / num_fadings];
    dynamics::DynamicsResult result = dynamics::RunSlottedSimulation(
        universe, params, scheduler, options);
    std::sort(result.delay_samples.begin(), result.delay_samples.end());
    const auto pct = [&](double q) {
      return result.delay_samples.empty()
                 ? 0.0
                 : mathx::Percentile(result.delay_samples, q);
    };
    return std::vector<double>{options.arrivals.rate,
                               result.backlog.Mean(),
                               result.delay_slots.Mean(),
                               pct(0.5),
                               pct(0.95),
                               pct(0.99),
                               100.0 * result.FailureRate()};
  };

  sim::MetricSweepOptions delay_sweep;
  if (!checkpoint.empty()) delay_sweep.checkpoint_path = checkpoint + ".delay";
  delay_sweep.resume = resume;
  if (!out_csv.empty()) delay_sweep.out_path = out_csv + ".delay.csv";
  std::fprintf(stderr, "[stability] delay grid: %zu series x %zu loads\n",
               delay_spec.series.size(), delay_spec.xs.size());
  const sim::SweepResult delay_result =
      sim::RunMetricSweep(delay_spec, delay_sweep);
  if (delay_result.interrupted) return delay_result.ExitCode();

  // --- JSON. -------------------------------------------------------------
  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"stability_frontier\",\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"host\": " << bench::HostJson() << ",\n";
  json << "  \"links\": " << num_links << ",\n";
  json << "  \"slots\": " << num_slots << ",\n";
  json << "  \"warmup_slots\": " << base.warmup_slots << ",\n";
  json << "  \"arrival_family\": \"" << family_text << "\",\n";
  json << "  \"bisection_iterations\": " << iterations << ",\n";
  json << "  \"frontier\": [\n";
  bool first = true;
  for (const std::string& scheduler : schedulers) {
    for (const std::string& fading : fadings) {
      for (const double alpha : alphas) {
        const std::string series = scheduler + "@" + fading;
        if (!first) json << ",\n";
        first = false;
        json << "    {\"scheduler\": \"" << scheduler << "\", \"alpha\": "
             << Num(alpha) << ", \"fading\": \"" << fading
             << "\", \"lambda_star\": "
             << Num(frontier_cell(series, alpha, "lambda_star"))
             << ", \"lambda_lo\": "
             << Num(frontier_cell(series, alpha, "lambda_lo"))
             << ", \"lambda_hi\": "
             << Num(frontier_cell(series, alpha, "lambda_hi"))
             << ", \"saturated\": "
             << (frontier_cell(series, alpha, "saturated") != 0.0 ? "true"
                                                                  : "false")
             << ", \"probes\": "
             << static_cast<long long>(frontier_cell(series, alpha, "probes"))
             << "}";
      }
    }
  }
  json << "\n  ],\n";
  json << "  \"delay_vs_load\": [\n";
  first = true;
  {
    const util::CsvTable& table = delay_result.table;
    for (std::size_t row = 0; row < table.NumRows(); ++row) {
      const std::string series = table.Cell(row, "series");
      const std::size_t at = series.find('@');
      if (!first) json << ",\n";
      first = false;
      json << "    {\"scheduler\": \"" << series.substr(0, at)
           << "\", \"fading\": \"" << series.substr(at + 1)
           << "\", \"alpha\": " << Num(delay_alpha) << ", \"load_fraction\": "
           << Num(table.CellAsDouble(row, "load_fraction"))
           << ", \"offered_load\": "
           << Num(table.CellAsDouble(row, "offered_load_mean"))
           << ", \"mean_backlog\": "
           << Num(table.CellAsDouble(row, "mean_backlog_mean"))
           << ", \"mean_delay_slots\": "
           << Num(table.CellAsDouble(row, "mean_delay_mean"))
           << ", \"delay_p50\": "
           << Num(table.CellAsDouble(row, "delay_p50_mean"))
           << ", \"delay_p95\": "
           << Num(table.CellAsDouble(row, "delay_p95_mean"))
           << ", \"delay_p99\": "
           << Num(table.CellAsDouble(row, "delay_p99_mean"))
           << ", \"failure_rate_pct\": "
           << Num(table.CellAsDouble(row, "failure_rate_pct_mean")) << "}";
    }
  }
  json << "\n  ]\n";
  json << "}\n";

  util::AtomicWriteFile(out_path, json.str());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
