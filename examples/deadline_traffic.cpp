// Deadline traffic: where fading-resistance actually pays.
//
// For throughput alone, aggressive deterministic scheduling can win (see
// `fadesched_cli queue-sim`'s delay-vs-load table, EXPERIMENTS "Queue
// dynamics") — but deadline traffic cares about the
// probability that a *scheduled* transmission fails and must be retried,
// blowing its latency budget. This example runs the slotted dynamics
// simulator (Bernoulli arrivals, Rayleigh fading) under identical load for
// every scheduler and reports both worlds: raw delivery *and*
// per-transmission reliability / retry statistics.
//
//   ./examples/deadline_traffic [--links 200] [--load 0.03] [--slots 2000]
#include <cstdio>

#include "core/fadesched.hpp"
#include "dynamics/slotted_sim.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace fadesched;

  util::CliParser cli("deadline_traffic",
                      "reliability vs throughput under queue dynamics");
  auto& num_links = cli.AddInt("links", 200, "links in the network");
  auto& load = cli.AddDouble("load", 0.03, "arrival probability per link/slot");
  auto& slots = cli.AddInt("slots", 2000, "simulated slots");
  auto& seed = cli.AddInt("seed", 17, "topology seed");
  if (!cli.Parse(argc, argv)) return 0;

  rng::Xoshiro256 gen(static_cast<std::uint64_t>(seed));
  const net::LinkSet links = net::MakeUniformScenario(
      static_cast<std::size_t>(num_links), {}, gen);
  channel::ChannelParams params;
  params.alpha = 3.0;

  std::printf("deadline traffic: %zu links, Bernoulli(%s) arrivals, "
              "%lld slots, eps = 1%%\n\n",
              links.Size(), util::FormatDouble(load, 3).c_str(),
              static_cast<long long>(slots));

  util::CsvTable table({"algorithm", "delivered", "mean_delay",
                        "p95_style_max_delay", "tx_failure_pct",
                        "retries_per_1k_packets"});
  for (const char* name :
       {"ldp", "rle", "dls", "fading_greedy", "approx_diversity",
        "graph_greedy"}) {
    dynamics::DynamicsOptions options;
    options.num_slots = static_cast<std::size_t>(slots);
    options.warmup_slots = options.num_slots / 5;
    options.arrivals.family = dynamics::ArrivalFamily::kBernoulli;
    options.arrivals.rate = load;
    const dynamics::DynamicsResult result =
        dynamics::RunSlottedSimulation(links, params, name, options);
    const std::uint64_t delivered = result.ledger.delivered;
    const double retries =
        delivered == 0
            ? 0.0
            : 1000.0 * static_cast<double>(result.failed_transmissions) /
                  static_cast<double>(delivered);
    util::CsvRowBuilder(table)
        .Add(std::string(name))
        .Add(static_cast<long long>(delivered))
        .Add(util::FormatDouble(result.delay_slots.Mean(), 2))
        .Add(util::FormatDouble(result.delay_slots.Max(), 0))
        .Add(util::FormatDouble(100.0 * result.FailureRate(), 3))
        .Add(util::FormatDouble(retries, 1))
        .Commit();
  }
  std::fputs(table.ToPrettyString().c_str(), stdout);
  std::printf(
      "\nHow to read this: delivered/delay measure raw queue performance —\n"
      "the aggressive schedulers win there. tx_failure_pct is the chance a\n"
      "scheduled transmission fails and must be retried: the fading-\n"
      "resistant schedulers hold it below eps = 1%% by construction, the\n"
      "deterministic and graph baselines do not. For traffic with per-\n"
      "transmission deadlines, that column IS the SLA.\n");
  return 0;
}
