// Queue-dynamics bench (extension): mean backlog, delivery delay (mean
// and p95), and per-transmission failure rate as offered load grows, per
// scheduler — now on the dynamics subsystem's slotted simulator and the
// crash-safe RunMetricSweep harness (checkpoint/resume, watchdog, atomic
// --out, exit code 3 on interrupt). The same numbers feed the
// delay_vs_load section of BENCH_stability.json (bench/stability_frontier).
//
// A deliberately honest experiment: when only the *backlogged* links are
// rescheduled each slot, the active subsets are sparse at moderate loads,
// so the aggressive deterministic baseline delivers more and queues less
// despite its fading failures — per-slot capacity dominates queue
// stability. The fading-resistance guarantee buys per-transmission
// reliability (every scheduled packet arrives with prob ≥ 1−ε, relevant
// for deadline traffic), not raw queue throughput. The failure-rate
// column makes the trade explicit.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "channel/params.hpp"
#include "dynamics/slotted_sim.hpp"
#include "mathx/stats.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace fadesched;
  util::CliParser cli("queue_delay_vs_load",
                      "queueing delay vs offered load (extension)");
  auto& num_links = cli.AddInt("links", 150, "links in the network");
  auto& num_slots = cli.AddInt("slots", 1500, "simulated slots");
  auto& seed = cli.AddInt("seed", 5, "topology seed");
  auto& seeds = cli.AddInt("seeds", 1, "simulation seeds per point");
  auto& loads_text = cli.AddString(
      "loads", "0.005,0.01,0.02,0.04,0.08", "comma-separated arrival rates");
  auto& algorithms_text = cli.AddString(
      "algorithms", "ldp,rle,fading_greedy,approx_diversity",
      "comma-separated schedulers");
  auto& family_text =
      cli.AddString("arrivals", "bernoulli", "arrival family");
  auto& checkpoint = cli.AddString(
      "checkpoint", "", "checkpoint file (enables crash-safe resume)");
  auto& resume =
      cli.AddBool("resume", false, "resume from --checkpoint if it exists");
  auto& out_path = cli.AddString("out", "", "write the CSV here (atomic)");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  channel::ChannelParams params;
  params.alpha = 3.0;

  dynamics::ArrivalFamily family = dynamics::ArrivalFamily::kBernoulli;
  FS_CHECK_MSG(dynamics::ParseArrivalFamily(family_text, family),
               "unknown --arrivals family '" + family_text + "'");

  rng::Xoshiro256 gen(static_cast<std::uint64_t>(seed));
  const net::LinkSet links = net::MakeUniformScenario(
      static_cast<std::size_t>(num_links), {}, gen);

  sim::MetricSweepSpec spec;
  spec.name = "queue_delay_vs_load";
  spec.x_name = "arrival_prob";
  for (const std::string& token : util::Split(loads_text, ',')) {
    const auto value = util::ParseDouble(util::Trim(token));
    FS_CHECK_MSG(value.has_value(), "malformed --loads value: '" + token +
                                        "'");
    spec.xs.push_back(*value);
  }
  for (const std::string& token : util::Split(algorithms_text, ',')) {
    const std::string name(util::Trim(token));
    if (!name.empty()) spec.series.push_back(name);
  }
  spec.metrics = {"mean_backlog", "mean_delay_slots", "delay_p95",
                  "delivered", "failure_rate_pct"};
  spec.num_seeds = static_cast<std::size_t>(seeds);
  {
    std::uint64_t h = sim::FingerprintInit();
    h = sim::FingerprintMix64(h, static_cast<std::uint64_t>(num_links));
    h = sim::FingerprintMix64(h, static_cast<std::uint64_t>(num_slots));
    h = sim::FingerprintMix64(h, static_cast<std::uint64_t>(seed));
    h = sim::FingerprintMixString(h, family_text);
    spec.config_fingerprint = h;
  }
  spec.run_seed = [&](std::size_t point, std::size_t series,
                      std::size_t seed_index,
                      const util::Deadline& /*deadline*/) {
    dynamics::DynamicsOptions options;
    options.num_slots = static_cast<std::size_t>(num_slots);
    options.warmup_slots = options.num_slots / 5;
    options.seed = static_cast<std::uint64_t>(seed) + seed_index;
    options.arrivals.family = family;
    options.arrivals.rate = spec.xs[point];
    dynamics::DynamicsResult result = dynamics::RunSlottedSimulation(
        links, params, spec.series[series], options);
    std::sort(result.delay_samples.begin(), result.delay_samples.end());
    const double p95 = result.delay_samples.empty()
                           ? 0.0
                           : mathx::Percentile(result.delay_samples, 0.95);
    return std::vector<double>{result.backlog.Mean(),
                               result.delay_slots.Mean(), p95,
                               static_cast<double>(result.ledger.delivered),
                               100.0 * result.FailureRate()};
  };

  sim::MetricSweepOptions options;
  options.checkpoint_path = checkpoint;
  options.resume = resume;
  options.out_path = out_path;

  const sim::SweepResult result = sim::RunMetricSweep(spec, options);
  std::printf("# Queue dynamics: backlog/delay vs offered load "
              "(N=%lld, alpha=3, eps=0.01, %lld slots, %s arrivals)\n",
              static_cast<long long>(num_links),
              static_cast<long long>(num_slots), family_text.c_str());
  std::fputs(result.table.ToString().c_str(), stdout);
  std::printf("\n%s\n", result.table.ToPrettyString().c_str());
  if (result.interrupted) {
    std::fprintf(stderr, "interrupted: %zu/%zu points complete\n",
                 result.points_completed, result.points_total);
  }
  return result.ExitCode();
}
