// fadesched_cli — command-line front end for the library.
//
//   fadesched_cli generate --type uniform --links 300 --seed 1 --out l.csv
//   fadesched_cli info     --in l.csv
//   fadesched_cli solve    --in l.csv --algorithm rle [--alpha 3] [--slots]
//   fadesched_cli simulate --in l.csv --algorithm rle --trials 10000
//   fadesched_cli fault-inject --in l.csv --drop 0.3 --crash-fraction 0.1
//   fadesched_cli ilp      --in l.csv --out problem.lp
//   fadesched_cli sweep    --x links --xs 100,200,300 --algorithms ldp,rle
//                              [--checkpoint sweep.ck --resume] --out sweep.csv
//   fadesched_cli queue-sim --algorithms ldp,rle --rates 0.01,0.02
//                              [--frontier] [--churn] [--checkpoint qs.ck]
//   fadesched_cli fuzz     --seed 1 --iters 2000 [--corpus-dir repros]
//                              [--dynamic]
//   fadesched_cli serve    --unix /tmp/fs.sock --workers 4 [--metrics-out m.json]
//   fadesched_cli loadgen  --unix /tmp/fs.sock --requests 1000 --connections 4
//   fadesched_cli chaos-soak --seed 7 --requests 10000 --fault-prob 0.02
//
// Every subcommand accepts --help.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 when a
// watchdog deadline fired or the run was interrupted (SIGINT/SIGTERM
// after checkpointing).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>

#include "core/fadesched.hpp"
#include "distsim/dls_protocol.hpp"
#include "dynamics/slotted_sim.hpp"
#include "dynamics/stability.hpp"
#include "mathx/stats.hpp"
#include "multislot/multislot.hpp"
#include "rng/distributions.hpp"
#include "sched/feedback.hpp"
#include "sched/ilp_export.hpp"
#include "service/chaos/soak.hpp"
#include "service/client.hpp"
#include "service/loadgen.hpp"
#include "service/shard/shard_server.hpp"
#include "service/supervisor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep.hpp"
#include "testing/dyn_fuzzer.hpp"
#include "testing/fuzz_driver.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"
#include "util/string_util.hpp"

namespace {

using namespace fadesched;

void AddChannelFlags(util::CliParser& cli, double*& alpha, double*& epsilon,
                     double*& gamma_th, double*& noise) {
  alpha = &cli.AddDouble("alpha", 3.0, "path-loss exponent (> 2)");
  epsilon = &cli.AddDouble("epsilon", 0.01, "acceptable outage probability");
  gamma_th = &cli.AddDouble("gamma-th", 1.0, "SINR decoding threshold");
  noise = &cli.AddDouble("noise", 0.0, "ambient noise power N0 (0 = paper)");
}

channel::ChannelParams MakeChannel(double alpha, double epsilon,
                                   double gamma_th, double noise) {
  channel::ChannelParams params;
  params.alpha = alpha;
  params.epsilon = epsilon;
  params.gamma_th = gamma_th;
  params.noise_power = noise;
  params.Validate();
  return params;
}

int RunGenerate(int argc, char** argv) {
  util::CliParser cli("fadesched_cli generate", "write a scenario CSV");
  auto& type = cli.AddString("type", "uniform",
                             "uniform | clustered | weighted | diverse");
  auto& links = cli.AddInt("links", 300, "number of links");
  auto& seed = cli.AddInt("seed", 1, "generator seed");
  auto& region = cli.AddDouble("region", 500.0, "deployment square side");
  auto& out = cli.AddString("out", "links.csv", "output path");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  rng::Xoshiro256 gen(static_cast<std::uint64_t>(seed));
  net::LinkSet result;
  const auto n = static_cast<std::size_t>(links);
  if (type == "uniform") {
    net::UniformScenarioParams p;
    p.region_size = region;
    result = net::MakeUniformScenario(n, p, gen);
  } else if (type == "clustered") {
    net::ClusteredScenarioParams p;
    p.region_size = region;
    result = net::MakeClusteredScenario(n, p, gen);
  } else if (type == "weighted") {
    net::WeightedScenarioParams p;
    p.base.region_size = region;
    result = net::MakeWeightedScenario(n, p, gen);
  } else if (type == "diverse") {
    net::DiverseLengthScenarioParams p;
    p.region_size = region;
    result = net::MakeDiverseLengthScenario(n, p, gen);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }
  net::SaveLinkSet(result, out);
  std::printf("wrote %zu links to %s\n", result.Size(), out.c_str());
  return 0;
}

int RunInfo(int argc, char** argv) {
  util::CliParser cli("fadesched_cli info", "topology statistics");
  auto& in = cli.AddString("in", "links.csv", "scenario CSV");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();
  const net::LinkSet links = net::LoadLinkSet(in);
  FS_CHECK_MSG(!links.Empty(), "scenario is empty");
  const geom::Aabb box = links.BoundingBox();
  std::printf("links:            %zu\n", links.Size());
  std::printf("bounding box:     [%.1f, %.1f] x [%.1f, %.1f]\n", box.lo.x,
              box.hi.x, box.lo.y, box.hi.y);
  std::printf("link lengths:     [%.2f, %.2f]\n", links.MinLength(),
              links.MaxLength());
  std::printf("length diversity: g(L) = %zu\n", net::LengthDiversity(links));
  std::printf("uniform rates:    %s\n",
              links.HasUniformRates() ? "yes" : "no");
  if (links.Size() <= 2000) {
    std::printf("distance ratio:   Delta = %.1f\n", net::DistanceRatio(links));
  }
  return 0;
}

int RunSolve(int argc, char** argv) {
  util::CliParser cli("fadesched_cli solve", "schedule one slot (or a frame)");
  auto& in = cli.AddString("in", "links.csv", "scenario CSV");
  auto& algorithm = cli.AddString("algorithm", "rle",
                                  "scheduler name (see `list`)");
  auto& slots = cli.AddBool("slots", false,
                            "schedule ALL links across multiple slots");
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  const net::LinkSet links = net::LoadLinkSet(in);
  const auto params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);
  if (slots) {
    const multislot::Frame frame =
        multislot::ScheduleAllLinks(links, params, algorithm);
    std::printf("frame: %zu slots for %zu links (%s)\n", frame.NumSlots(),
                links.Size(), algorithm.c_str());
    std::printf("rate-weighted completion slot: %.2f\n",
                frame.RateWeightedCompletion(links));
    std::printf("all slots fading-feasible: %s\n",
                multislot::FrameIsValid(links, params, frame) ? "yes" : "no");
    for (std::size_t s = 0; s < frame.NumSlots() && s < 10; ++s) {
      std::printf("  slot %zu: %zu links\n", s + 1, frame.slots[s].size());
    }
    if (frame.NumSlots() > 10) std::printf("  ...\n");
    return 0;
  }
  const core::Problem problem(links, params);
  const core::Solution solution = problem.Solve(algorithm);
  std::printf("algorithm:             %s\n", solution.algorithm.c_str());
  std::printf("links scheduled:       %zu / %zu\n", solution.schedule.size(),
              links.Size());
  std::printf("claimed rate:          %.3f\n", solution.claimed_rate);
  std::printf("fading feasible:       %s\n",
              solution.fading_feasible ? "yes" : "no");
  std::printf("expected throughput:   %.3f\n", solution.expected_throughput);
  std::printf("expected failures:     %.4f\n", solution.expected_failed);
  std::printf("min success prob:      %.4f\n",
              solution.min_success_probability);
  std::printf("schedule:");
  for (net::LinkId id : solution.schedule) {
    std::printf(" %zu", id);
  }
  std::printf("\n");
  return 0;
}

int RunSimulate(int argc, char** argv) {
  util::CliParser cli("fadesched_cli simulate",
                      "Monte-Carlo fading simulation of a schedule");
  auto& in = cli.AddString("in", "links.csv", "scenario CSV");
  auto& algorithm = cli.AddString("algorithm", "rle", "scheduler name");
  auto& trials = cli.AddInt("trials", 10000, "fading realizations");
  auto& sim_seed = cli.AddInt("sim-seed", 42, "simulator seed");
  auto& threads = cli.AddInt("threads", 0, "simulator threads (0 = hw)");
  auto& deadline = cli.AddDouble(
      "deadline", 0.0, "watchdog deadline in seconds (0 = unlimited)");
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  const net::LinkSet links = net::LoadLinkSet(in);
  const auto params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);
  const core::Problem problem(links, params);
  const core::Solution solution = problem.Solve(algorithm);

  sim::SimOptions options;
  options.trials = static_cast<std::size_t>(trials);
  options.seed = static_cast<std::uint64_t>(sim_seed);
  options.threads = threads <= 0 ? 0 : static_cast<unsigned>(threads);
  options.deadline = util::Deadline::After(deadline);
  const sim::SimResult result =
      sim::SimulateSchedule(links, params, solution.schedule, options);

  std::printf("schedule (%s): %zu links, claimed %.3f\n",
              algorithm.c_str(), solution.schedule.size(),
              solution.claimed_rate);
  std::printf("measured throughput:  %.4f ± %.4f (95%% CI)\n",
              result.throughput_per_trial.Mean(),
              result.throughput_per_trial.ConfidenceHalfWidth95());
  std::printf("expected throughput:  %.4f (closed form)\n",
              solution.expected_throughput);
  std::printf("measured failures:    %.4f ± %.4f per slot\n",
              result.failed_per_trial.Mean(),
              result.failed_per_trial.ConfidenceHalfWidth95());
  std::printf("expected failures:    %.4f (closed form)\n",
              solution.expected_failed);
  return 0;
}

int RunFaultInject(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli fault-inject",
      "run the distributed DLS protocol under control-plane faults");
  auto& in = cli.AddString("in", "links.csv", "scenario CSV");
  auto& drop = cli.AddDouble("drop", 0.0, "per-beacon drop probability");
  auto& crash_fraction =
      cli.AddDouble("crash-fraction", 0.0, "fraction of agents that crash");
  auto& outage = cli.AddDouble(
      "outage", 0.0, "crash outage in seconds (<= 0 = permanent)");
  auto& radius_shrink = cli.AddDouble(
      "radius-shrink", 0.0, "broadcast-radius loss per round (fading)");
  auto& jitter = cli.AddDouble("jitter", 0.0, "max timer jitter (seconds)");
  auto& fault_seed = cli.AddInt("fault-seed", 1, "fault stream seed");
  auto& retry = cli.AddBool(
      "retry", false, "run the feedback retry layer on the survivors");
  auto& max_attempts =
      cli.AddInt("max-attempts", 8, "retry attempts before blacklisting");
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  const net::LinkSet links = net::LoadLinkSet(in);
  const auto params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);

  distsim::DlsProtocolOptions options;
  options.fault.drop_probability = drop;
  options.fault.radius_shrink_per_round = radius_shrink;
  options.fault.timer_jitter = jitter;
  options.fault.seed = static_cast<std::uint64_t>(fault_seed);
  const double horizon =
      (options.contention_rounds + options.resolution_rounds + 1.0) *
      options.round_duration;
  options.fault.crashes = distsim::SampleCrashWindows(
      links.Size(), crash_fraction, horizon, outage,
      static_cast<std::uint64_t>(fault_seed) * 977);

  const auto result = distsim::RunDlsProtocol(links, params, options);
  std::printf("links scheduled:        %zu / %zu\n", result.schedule.size(),
              links.Size());
  std::printf("beacons sent:           %llu\n",
              static_cast<unsigned long long>(result.sim_stats.messages_sent));
  std::printf("beacons lost:           %llu (%.1f%%)\n",
              static_cast<unsigned long long>(result.beacons_lost),
              result.sim_stats.messages_sent == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(result.beacons_lost) /
                        static_cast<double>(result.sim_stats.messages_sent));
  std::printf("agents crashed:         %zu\n", result.agents_crashed);
  std::printf("agents silent-pruned:   %zu\n", result.agents_silent_pruned);
  std::printf("residual violation rate: %.4f\n",
              result.residual_violation_rate);

  if (retry) {
    sched::FeedbackOptions fb_options;
    fb_options.max_attempts = static_cast<std::uint32_t>(max_attempts);
    const auto fb =
        sched::RunFeedbackSchedule(links, params, result.schedule, fb_options);
    std::printf("retry delivered:        %zu / %zu links (rate fraction "
                "%.3f)\n", fb.delivered_links, result.schedule.size(),
                fb.delivered_rate_fraction);
    std::printf("retry blacklisted:      %zu\n", fb.blacklisted_links);
    std::printf("retry slots used:       %zu\n", fb.slots_used);
    if (fb.delay_slots.Count() > 0) {
      std::printf("delivery delay (slots): mean %.2f, max %.0f\n",
                  fb.delay_slots.Mean(), fb.delay_slots.Max());
    }
  }
  return 0;
}

int RunIlp(int argc, char** argv) {
  util::CliParser cli("fadesched_cli ilp",
                      "export the instance as a CPLEX-LP integer program");
  auto& in = cli.AddString("in", "links.csv", "scenario CSV");
  auto& out = cli.AddString("out", "problem.lp", "LP output path");
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();
  const net::LinkSet links = net::LoadLinkSet(in);
  const auto params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);
  sched::WriteIlpFile(links, params, out);
  std::printf("wrote ILP (%zu binaries) to %s\n", links.Size(), out.c_str());
  return 0;
}

int RunSweep(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli sweep",
      "crash-safe experiment sweep with checkpoint/resume");
  auto& x_kind = cli.AddString("x", "links",
                               "swept variable: links | alpha");
  auto& xs_text = cli.AddString("xs", "100,200,300,400,500",
                                "comma-separated x values");
  auto& algorithms_text =
      cli.AddString("algorithms", "ldp,rle", "comma-separated schedulers");
  auto& seeds = cli.AddInt("seeds", 5, "topologies per point");
  auto& trials = cli.AddInt("trials", 1000, "fading realizations per seed");
  auto& threads = cli.AddInt("threads", 0, "simulator threads (0 = hw)");
  auto& base_seed = cli.AddInt("base-seed", 1, "first topology seed");
  auto& num_links = cli.AddInt(
      "links", 300, "links per topology (when sweeping alpha)");
  sim::SweepFlags harness(cli);
  auto& deterministic = cli.AddBool(
      "deterministic", false,
      "record sched_ms as 0 so reruns produce byte-identical CSV");
  harness.AddCrashDrill();
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  FS_CHECK_MSG(x_kind == "links" || x_kind == "alpha",
               "--x must be 'links' or 'alpha'");
  std::vector<double> xs;
  for (const std::string& token : util::Split(xs_text, ',')) {
    const auto value = util::ParseDouble(util::Trim(token));
    FS_CHECK_MSG(value.has_value(), "malformed --xs value: '" + token + "'");
    xs.push_back(*value);
  }

  sim::SweepSpec spec;
  spec.name = "fadesched_cli sweep --x " + x_kind;
  spec.x_name = x_kind == "links" ? "num_links" : "alpha";
  spec.xs = xs;
  const auto base_params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);
  const auto fixed_links = static_cast<std::size_t>(num_links);
  const bool sweep_links = x_kind == "links";
  spec.make_point = [base_params, fixed_links, sweep_links](double x) {
    sim::ExperimentPoint point;
    point.channel = base_params;
    if (sweep_links) {
      point.num_links = static_cast<std::size_t>(x);
    } else {
      point.num_links = fixed_links;
      point.channel.alpha = x;
    }
    return point;
  };

  sim::SweepOptions options;
  for (const std::string& token : util::Split(algorithms_text, ',')) {
    options.config.algorithms.emplace_back(util::Trim(token));
  }
  options.config.num_seeds = static_cast<std::size_t>(seeds);
  options.config.base_seed = static_cast<std::uint64_t>(base_seed);
  options.config.trials = static_cast<std::size_t>(trials);
  options.config.threads =
      threads <= 0 ? 0u : static_cast<unsigned>(threads);
  options.deterministic = deterministic;
  harness.Apply(options);

  const sim::SweepResult result = sim::RunExperimentSweep(spec, options);
  std::fputs(result.table.ToString().c_str(), stdout);
  if (result.failed_seeds > 0) {
    std::fprintf(stderr, "warning: %zu seed(s) failed (%zu timed out)\n",
                 result.failed_seeds, result.timed_out_seeds);
  }
  if (result.interrupted) {
    std::fprintf(stderr, "interrupted: %zu/%zu points complete\n",
                 result.points_completed, result.points_total);
  }
  return result.ExitCode();
}

int RunFuzzCmd(int argc, char** argv) {
  util::CliParser cli("fadesched_cli fuzz",
                      "seed-driven metamorphic fuzzing of every scheduler");
  auto& seed = cli.AddInt("seed", 1, "fuzzer seed (case = f(seed, index))");
  auto& iters = cli.AddInt("iters", 2000, "number of generated instances");
  auto& min_links = cli.AddInt("min-links", 2, "smallest instance size");
  auto& max_links = cli.AddInt("max-links", 24, "largest instance size");
  auto& check = cli.AddBool(
      "check", true, "run oracle/metamorphic checks (false = generate only)");
  auto& shrink = cli.AddBool("shrink", true, "ddmin-shrink failing instances");
  auto& corpus_dir = cli.AddString(
      "corpus-dir", "", "write shrunk .scenario reproducers here");
  auto& schedulers = cli.AddString(
      "schedulers", "", "comma-separated scheduler filter (empty = all)");
  auto& exact_cap = cli.AddInt(
      "exact-cap", 14, "cross-validate vs branch-and-bound when N <= cap");
  auto& max_failures =
      cli.AddInt("max-failures", 8, "stop after this many distinct failures");
  auto& log_every = cli.AddInt("log-every", 500, "progress period (0 = off)");
  auto& dynamic = cli.AddBool(
      "dynamic", false,
      "fuzz the dynamics subsystem instead: slotted runs with random "
      "arrival/churn knobs, checked against the replay oracle "
      "(.dynscenario reproducers)");
  auto& min_slots =
      cli.AddInt("min-slots", 40, "shortest dynamic run (--dynamic)");
  auto& max_slots =
      cli.AddInt("max-slots", 160, "longest dynamic run (--dynamic)");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  if (dynamic) {
    testing::DynFuzzDriverOptions dyn;
    dyn.seed = static_cast<std::uint64_t>(seed);
    dyn.iterations = static_cast<std::uint64_t>(iters);
    dyn.fuzzer.topology.min_links = static_cast<std::size_t>(min_links);
    dyn.fuzzer.topology.max_links = static_cast<std::size_t>(max_links);
    dyn.fuzzer.min_slots = static_cast<std::size_t>(min_slots);
    dyn.fuzzer.max_slots = static_cast<std::size_t>(max_slots);
    dyn.shrink = shrink;
    dyn.corpus_dir = corpus_dir;
    dyn.max_failures = static_cast<std::size_t>(max_failures);
    dyn.log_every = static_cast<std::uint64_t>(log_every);
    dyn.log = [](const std::string& message) {
      std::fprintf(stderr, "%s\n", message.c_str());
    };
    for (const std::string& name : util::Split(schedulers, ',')) {
      if (!name.empty()) dyn.fuzzer.schedulers.push_back(name);
    }
    if (!check) {
      const testing::DynamicFuzzer fuzzer(dyn.seed, dyn.fuzzer);
      std::size_t total_links = 0;
      for (std::uint64_t i = 0; i < dyn.iterations; ++i) {
        total_links += fuzzer.Case(i).scenario.links.Size();
      }
      std::printf(
          "generated %llu dynamic instances (%zu links total), checks off\n",
          static_cast<unsigned long long>(dyn.iterations), total_links);
      return 0;
    }
    const testing::DynFuzzReport report = testing::RunDynamicFuzz(dyn);
    std::printf("dynfuzz: %llu/%llu instances checked, %llu failing, "
                "%zu distinct failure class(es)\n",
                static_cast<unsigned long long>(report.iterations_run),
                static_cast<unsigned long long>(dyn.iterations),
                static_cast<unsigned long long>(report.cases_with_failures),
                report.failures.size());
    for (const testing::DynFuzzFailure& failure : report.failures) {
      std::printf("  [%s/%s] shrunk to %zu links, %zu slots%s%s\n",
                  failure.original.scheduler.c_str(),
                  failure.outcome.check.c_str(),
                  failure.shrunk.scenario.links.Size(),
                  failure.shrunk.dynamics.num_slots,
                  failure.corpus_path.empty() ? "" : " -> ",
                  failure.corpus_path.c_str());
    }
    return report.Ok() ? 0 : 1;
  }

  testing::FuzzDriverOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.iterations = static_cast<std::uint64_t>(iters);
  options.fuzzer.min_links = static_cast<std::size_t>(min_links);
  options.fuzzer.max_links = static_cast<std::size_t>(max_links);
  options.oracle.exact_cap = static_cast<std::size_t>(exact_cap);
  options.shrink = shrink;
  options.corpus_dir = corpus_dir;
  options.max_failures = static_cast<std::size_t>(max_failures);
  options.log_every = static_cast<std::uint64_t>(log_every);
  options.log = [](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
  };
  for (const std::string& name : util::Split(schedulers, ',')) {
    if (!name.empty()) options.oracle.schedulers.push_back(name);
  }

  if (!check) {
    // Generation-only smoke: exercise the generators and parameter space
    // without the oracle (useful for profiling the fuzzer itself).
    const testing::ScenarioFuzzer fuzzer(options.seed, options.fuzzer);
    std::size_t total_links = 0;
    for (std::uint64_t i = 0; i < options.iterations; ++i) {
      total_links += fuzzer.Case(i).links.Size();
    }
    std::printf("generated %llu instances (%zu links total), checks off\n",
                static_cast<unsigned long long>(options.iterations),
                total_links);
    return 0;
  }

  const testing::FuzzReport report = testing::RunFuzz(options);
  std::printf("fuzz: %llu/%llu instances checked, %llu with violations, "
              "%zu distinct failure class(es)\n",
              static_cast<unsigned long long>(report.iterations_run),
              static_cast<unsigned long long>(options.iterations),
              static_cast<unsigned long long>(report.cases_with_violations),
              report.failures.size());
  for (const testing::FuzzFailure& failure : report.failures) {
    std::printf("  [%s/%s] shrunk to %zu links%s%s\n",
                failure.violation.scheduler.c_str(),
                failure.violation.check.c_str(), failure.shrunk_links,
                failure.corpus_path.empty() ? "" : " -> ",
                failure.corpus_path.c_str());
  }
  return report.Ok() ? 0 : 1;
}

int RunQueueSim(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli queue-sim",
      "slotted dynamic-traffic simulation on the crash-safe sweep harness: "
      "arrival processes, churn, per-slot scheduling; --frontier "
      "binary-searches the stability frontier lambda*");
  auto& in = cli.AddString("in", "", "scenario CSV (empty = generate "
                                     "uniform from --links/--seed)");
  auto& num_links = cli.AddInt("links", 150, "links when generating");
  auto& topo_seed = cli.AddInt("seed", 5, "topology seed when generating");
  auto& sim_seed = cli.AddInt("sim-seed", 1, "dynamics seed (arrivals/"
                                             "churn/fading substreams)");
  auto& algorithms_text =
      cli.AddString("algorithms", "ldp,rle", "comma-separated schedulers");
  auto& num_slots = cli.AddInt("slots", 1000, "simulated slots");
  auto& warmup = cli.AddInt(
      "warmup", -1, "slots excluded from statistics (-1 = slots/5)");
  auto& family_text = cli.AddString(
      "arrivals", "bernoulli",
      "arrival family: bernoulli | poisson | onoff | leaky");
  auto& rates_text = cli.AddString(
      "rates", "0.01,0.02,0.04", "comma-separated mean arrival rates (the "
                                 "sweep's x axis)");
  auto& duty = cli.AddDouble("duty-cycle", 0.25, "onoff: ON fraction");
  auto& burst = cli.AddDouble("burst-slots", 8.0, "onoff: mean ON sojourn");
  auto& depth = cli.AddDouble("bucket-depth", 4.0, "leaky: bucket depth");
  auto& release = cli.AddDouble("release-prob", 0.25,
                                "leaky: early-release probability");
  auto& capacity = cli.AddInt("queue-capacity", 0,
                              "per-link queue bound (0 = unbounded)");
  auto& churn = cli.AddBool("churn", false, "enable membership churn/drift");
  auto& leave = cli.AddDouble("leave-prob", 0.01, "churn: leave/slot");
  auto& enter = cli.AddDouble("enter-prob", 0.1, "churn: re-enter/slot");
  auto& fade_recheck = cli.AddDouble(
      "fade-recheck-prob", 0.02, "churn: fading-recheck (staleness)/slot");
  auto& drift = cli.AddInt("drift", 1, "churn: mobility steps per slot");
  auto& region = cli.AddDouble("region", 500.0, "churn: mobility region");
  auto& refresh_period = cli.AddInt(
      "refresh-period", 0, "rebuild the scheduling snapshot every N slots "
                           "(0 = never)");
  auto& refresh_budget = cli.AddInt(
      "refresh-budget", 0, "rebuild after N staleness events (0 = never)");
  auto& seeds = cli.AddInt("seeds", 1, "simulation seeds per point");
  auto& trace = cli.AddBool(
      "trace", false, "print the per-slot trace (single rate + algorithm; "
                      "byte-identical across reruns)");
  auto& frontier = cli.AddBool(
      "frontier", false, "binary-search lambda* per scheduler instead of "
                         "sweeping --rates");
  auto& frontier_iters =
      cli.AddInt("frontier-iters", 6, "bisection refinements (--frontier)");
  auto& lambda_hi = cli.AddDouble(
      "lambda-hi", 0.3, "initial upper bracket (--frontier)");
  sim::SweepFlags harness(cli);
  double *alpha, *epsilon, *gamma_th, *noise;
  AddChannelFlags(cli, alpha, epsilon, gamma_th, noise);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  const auto params = MakeChannel(*alpha, *epsilon, *gamma_th, *noise);
  net::LinkSet links;
  if (!in.empty()) {
    links = net::LoadLinkSet(in);
  } else {
    rng::Xoshiro256 gen(static_cast<std::uint64_t>(topo_seed));
    links = net::MakeUniformScenario(static_cast<std::size_t>(num_links), {},
                                     gen);
  }

  std::vector<std::string> algorithms;
  for (const std::string& token : util::Split(algorithms_text, ',')) {
    const std::string name(util::Trim(token));
    if (!name.empty()) algorithms.push_back(name);
  }
  FS_CHECK_MSG(!algorithms.empty(), "--algorithms must be non-empty");
  std::vector<double> rates;
  for (const std::string& token : util::Split(rates_text, ',')) {
    const auto value = util::ParseDouble(util::Trim(token));
    FS_CHECK_MSG(value.has_value(), "malformed --rates value: '" + token +
                                        "'");
    rates.push_back(*value);
  }
  FS_CHECK_MSG(!rates.empty(), "--rates must be non-empty");

  dynamics::DynamicsOptions base;
  base.num_slots = static_cast<std::size_t>(num_slots);
  base.warmup_slots = warmup < 0 ? base.num_slots / 5
                                 : static_cast<std::size_t>(warmup);
  base.seed = static_cast<std::uint64_t>(sim_seed);
  FS_CHECK_MSG(
      dynamics::ParseArrivalFamily(family_text, base.arrivals.family),
      "unknown --arrivals family '" + family_text + "'");
  base.arrivals.duty_cycle = duty;
  base.arrivals.mean_burst_slots = burst;
  base.arrivals.bucket_depth = depth;
  base.arrivals.release_probability = release;
  base.queue_capacity = static_cast<std::size_t>(capacity);
  if (churn) {
    base.churn.enabled = true;
    base.churn.leave_probability = leave;
    base.churn.enter_probability = enter;
    base.churn.fade_recheck_probability = fade_recheck;
    base.churn.drift_steps_per_slot = static_cast<std::size_t>(drift);
    base.churn.mobility.region_size = region;
  }
  base.refresh.period_slots = static_cast<std::size_t>(refresh_period);
  base.refresh.churn_budget = static_cast<std::uint64_t>(refresh_budget);

  if (trace) {
    FS_CHECK_MSG(algorithms.size() == 1 && rates.size() == 1,
                 "--trace needs exactly one --algorithms entry and one "
                 "--rates entry");
    dynamics::DynamicsOptions options = base;
    options.arrivals.rate = rates[0];
    options.slot_observer = [](const dynamics::SlotRecord& record) {
      std::printf("%s\n", dynamics::FormatSlotRecord(record).c_str());
    };
    const dynamics::DynamicsResult result = dynamics::RunSlottedSimulation(
        links, params, algorithms[0], options);
    std::printf("# ledger arrivals=%llu delivered=%llu blocked=%llu "
                "overflow=%llu residual=%llu balanced=%d\n",
                static_cast<unsigned long long>(result.ledger.arrivals),
                static_cast<unsigned long long>(result.ledger.delivered),
                static_cast<unsigned long long>(result.ledger.dropped_blocked),
                static_cast<unsigned long long>(
                    result.ledger.dropped_overflow),
                static_cast<unsigned long long>(result.ledger.residual),
                result.ledger.Balanced() ? 1 : 0);
    return 0;
  }

  sim::MetricSweepSpec spec;
  spec.series = algorithms;
  spec.num_seeds = static_cast<std::size_t>(seeds);
  {
    std::uint64_t h = sim::FingerprintInit();
    h = sim::FingerprintMix64(h, links.Size());
    h = sim::FingerprintMix64(h, base.num_slots);
    h = sim::FingerprintMix64(h, base.seed);
    h = sim::FingerprintMixString(h, family_text);
    h = sim::FingerprintMixDouble(h, *alpha);
    spec.config_fingerprint = h;
  }

  if (frontier) {
    spec.name = "queue-sim frontier";
    spec.x_name = "alpha";
    spec.xs = {*alpha};
    spec.metrics = {"lambda_star", "lambda_lo", "lambda_hi", "saturated",
                    "probes"};
    dynamics::FrontierOptions frontier_options;
    frontier_options.lambda_hi = lambda_hi;
    frontier_options.iterations = static_cast<std::size_t>(frontier_iters);
    spec.run_seed = [&, frontier_options](
                        std::size_t /*point*/, std::size_t series,
                        std::size_t seed_index,
                        const util::Deadline& /*deadline*/) {
      dynamics::DynamicsOptions options = base;
      options.seed = base.seed + seed_index;
      const dynamics::FrontierResult result =
          dynamics::FindStabilityFrontier(links, params, algorithms[series],
                                          options, frontier_options);
      return std::vector<double>{result.lambda_star, result.lambda_lo,
                                 result.lambda_hi,
                                 result.saturated ? 1.0 : 0.0,
                                 static_cast<double>(result.probes)};
    };
  } else {
    spec.name = "queue-sim";
    spec.x_name = "arrival_rate";
    spec.xs = rates;
    spec.metrics = {"mean_backlog", "mean_delay_slots", "delay_p95",
                    "delivered", "failure_rate_pct"};
    spec.run_seed = [&](std::size_t point, std::size_t series,
                        std::size_t seed_index,
                        const util::Deadline& /*deadline*/) {
      dynamics::DynamicsOptions options = base;
      options.seed = base.seed + seed_index;
      options.arrivals.rate = rates[point];
      dynamics::DynamicsResult result = dynamics::RunSlottedSimulation(
          links, params, algorithms[series], options);
      std::sort(result.delay_samples.begin(), result.delay_samples.end());
      const double p95 = result.delay_samples.empty()
                             ? 0.0
                             : mathx::Percentile(result.delay_samples, 0.95);
      return std::vector<double>{result.backlog.Mean(),
                                 result.delay_slots.Mean(), p95,
                                 static_cast<double>(result.ledger.delivered),
                                 100.0 * result.FailureRate()};
    };
  }

  sim::MetricSweepOptions options;
  harness.Apply(options);

  const sim::SweepResult result = sim::RunMetricSweep(spec, options);
  std::fputs(result.table.ToString().c_str(), stdout);
  if (result.failed_seeds > 0) {
    std::fprintf(stderr, "warning: %zu seed(s) failed (%zu timed out)\n",
                 result.failed_seeds, result.timed_out_seeds);
  }
  if (result.interrupted) {
    std::fprintf(stderr, "interrupted: %zu/%zu points complete\n",
                 result.points_completed, result.points_total);
  }
  return result.ExitCode();
}

struct OverloadFlags {
  double* target_ms = nullptr;
  double* interval_ms = nullptr;
};

OverloadFlags AddOverloadFlags(util::CliParser& cli) {
  OverloadFlags flags;
  flags.target_ms = &cli.AddDouble(
      "queue-delay-target-ms", 5.0,
      "CoDel queue-delay target; sustained delay above it sheds "
      "adaptively (0 = disable the overload controller)");
  flags.interval_ms = &cli.AddDouble(
      "overload-interval-ms", 100.0,
      "delay must stay above target this long before cold requests are "
      "shed");
  return flags;
}

service::OverloadOptions MakeOverloadOptions(const OverloadFlags& flags) {
  service::OverloadOptions overload;
  overload.queue_delay_target_ms = *flags.target_ms;
  overload.interval_ms = *flags.interval_ms;
  overload.Validate();
  return overload;
}

service::shard::RoutingMode RoutingFromName(const std::string& name) {
  if (name == "affinity") return service::shard::RoutingMode::kAffinity;
  if (name == "round_robin") return service::shard::RoutingMode::kRoundRobin;
  throw util::FatalError("unknown routing mode '" + name +
                         "' (expected affinity or round_robin)");
}

int RunServe(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli serve",
      "line-protocol scheduling server (unix socket or TCP loopback): one "
      "epoll loop serves every connection; in-process by default; "
      "--shards N forks N crash-only worker processes behind a "
      "consistent-hash payload router that restarts crashed shards, opens "
      "a flap breaker on crash loops (exit 1), and rolls them one arc at a "
      "time on SIGHUP; SIGTERM/SIGINT drain gracefully, exit 0");
  auto& unix_path = cli.AddString(
      "unix", "", "unix-domain socket path (empty = TCP)");
  auto& host = cli.AddString("host", "127.0.0.1", "TCP bind address");
  auto& port = cli.AddInt("port", 0, "TCP port (0 = ephemeral, printed)");
  auto& workers = cli.AddInt(
      "workers", 4,
      "scheduling threads (per shard process when --shards > 0)");
  auto& queue = cli.AddInt("queue-capacity", 256,
                           "pending-request slots; beyond this, shed");
  auto& deadline = cli.AddDouble(
      "default-deadline", 0.0,
      "queue deadline (s) for requests that carry none; 0 = unlimited");
  auto& cache_mb = cli.AddInt(
      "cache-mb", 256,
      "scenario+response cache budget (MiB; per shard when sharded)");
  auto& metrics_out = cli.AddString(
      "metrics-out", "",
      "write the metrics JSON here on shutdown (single-process mode only; "
      "sharded metrics aggregate through the STATS verb)");
  auto& shards = cli.AddInt(
      "shards", 0,
      "fork this many shard worker processes behind the epoll loop; "
      "0 = one in-process slot on the loop (the default: no fork, no "
      "pipe, lower CPU and RSS per request than --shards 1)");
  auto& vnodes = cli.AddInt("vnodes", 128,
                            "virtual nodes per shard on the hash ring");
  auto& routing = cli.AddString(
      "routing", "affinity",
      "request placement: affinity (consistent-hash on the scenario "
      "payload, cache-warm) | round_robin (the bench's control arm)");
  auto& completion_threads = cli.AddInt(
      "completion-threads", 2,
      "threads that parse the frames a cache probe cannot answer "
      "(single-process mode; a shard worker parses on its pipe reader)");
  auto& drain_grace = cli.AddDouble(
      "drain-grace", 10.0,
      "on SIGTERM, connections get this long (s) to finish in-flight "
      "requests, then are closed and their unsent replies dropped; with "
      "--shards, also the worker SIGTERM → SIGKILL grace");
  auto& max_restarts = cli.AddInt(
      "max-restarts", 8,
      "shard restarts inside --restart-window before the flap breaker "
      "opens (serve then exits 1)");
  auto& restart_window = cli.AddDouble("restart-window", 10.0,
                                       "flap-breaker sliding window (s)");
  auto& chaos_kills = cli.AddInt(
      "chaos-kills", 0,
      "injected shard SIGKILLs (seeded, deterministic; sharded mode)");
  auto& chaos_seed = cli.AddInt("chaos-seed", 1, "process-fault plan seed");
  auto& chaos_window = cli.AddDouble(
      "chaos-window", 10.0, "injected faults land inside [0, this) (s)");
  auto& status_out = cli.AddString(
      "status-out", "",
      "write the shard supervision report JSON here on exit");
  const OverloadFlags overload_flags = AddOverloadFlags(cli);
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  service::shard::ShardServerOptions options;
  options.server.unix_socket_path = unix_path;
  options.server.host = host;
  options.server.port = static_cast<int>(port);
  service::ServiceOptions& service = options.server.service;
  service.batcher.num_workers = static_cast<std::size_t>(workers);
  service.batcher.queue_capacity = static_cast<std::size_t>(queue);
  service.batcher.default_deadline_seconds = deadline;
  service.batcher.overload = MakeOverloadOptions(overload_flags);
  service.cache.capacity_bytes = static_cast<std::size_t>(cache_mb) << 20;
  options.num_shards = shards > 0 ? static_cast<std::size_t>(shards) : 0;
  options.vnodes_per_shard = static_cast<std::size_t>(vnodes);
  options.routing = RoutingFromName(routing);
  options.completion_threads_per_shard =
      static_cast<std::size_t>(completion_threads);
  options.supervisor.drain_grace_seconds = drain_grace;
  options.supervisor.max_restarts_in_window =
      static_cast<std::size_t>(max_restarts);
  options.supervisor.restart_window_seconds = restart_window;
  options.supervisor.chaos.seed = static_cast<std::uint64_t>(chaos_seed);
  options.supervisor.chaos.kills = static_cast<std::size_t>(chaos_kills);
  options.supervisor.chaos.window_seconds = chaos_window;

  service::shard::ShardServer server(options);
  server.Start();
  const std::string where =
      unix_path.empty() ? host + ":" + std::to_string(server.Port())
                        : "unix:" + unix_path;
  if (options.num_shards > 0) {
    std::printf("listening on %s (%d shards, %s routing)\n", where.c_str(),
                static_cast<int>(shards), routing.c_str());
  } else {
    std::printf("listening on %s\n", where.c_str());
  }
  std::fflush(stdout);

  // Serve() returns after a guarded SIGINT/SIGTERM (it installs its own
  // signal guard; workers inherit it): in-flight requests complete
  // within --drain-grace and the slots shut down — a graceful drain is a
  // SUCCESS for a server, hence exit 0 (unlike sweeps, where interrupted
  // means incomplete work and exits 3).
  server.Serve();
  if (options.num_shards > 0) {
    const service::SupervisorReport& report = server.Report();
    std::fputs(report.ToJson().c_str(), stdout);
    if (!status_out.empty()) {
      util::AtomicWriteFile(status_out, report.ToJson());
    }
    if (report.breaker_open) {
      std::fprintf(stderr,
                   "flap breaker open: %zu restarts inside %.1fs window\n",
                   report.restarts, restart_window);
      return 1;
    }
  } else if (!metrics_out.empty()) {
    server.LocalService()->Metrics().DumpJson(metrics_out);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  std::printf("drained, shutting down\n");
  return 0;
}

int RunLoadgen(int argc, char** argv) {
  util::CliParser cli("fadesched_cli loadgen",
                      "seeded load generator against a serve endpoint");
  auto& unix_path = cli.AddString("unix", "",
                                  "unix-domain socket path (empty = TCP)");
  auto& host = cli.AddString("host", "127.0.0.1", "server address");
  auto& port = cli.AddInt("port", 0, "server TCP port");
  auto& requests = cli.AddInt("requests", 1000, "total requests to send");
  auto& connections = cli.AddInt("connections", 4, "concurrent connections");
  auto& pool = cli.AddInt("pool", 16, "distinct scenarios (replayed "
                          "round-robin; small pool = cache-hit heavy)");
  auto& links = cli.AddInt("links", 40, "links per generated scenario");
  auto& seed = cli.AddInt("seed", 1, "scenario-pool seed");
  auto& scheduler = cli.AddString("scheduler", "rle", "scheduler name");
  auto& deadline = cli.AddDouble("deadline", 0.0,
                                 "per-request queue deadline (s); 0 = none");
  auto& rate = cli.AddDouble(
      "rate", 0.0, "open-loop offered load (req/s); 0 = closed loop");
  auto& hot_fraction = cli.AddDouble(
      "hot-fraction", 1.0,
      "fraction of requests replaying the warm pool; the rest are "
      "scenarios sent once per run (cache misses unless an earlier run "
      "with the same seed sent them)");
  auto& drift = cli.AddInt(
      "drift", 0,
      "every N requests, replace one warm-pool entry with a fresh "
      "scenario (drifting working set; 0 = static pool)");
  auto& report_out = cli.AddString("report-out", "",
                                   "write the report JSON here");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  service::LoadgenOptions options;
  options.unix_socket_path = unix_path;
  options.host = host;
  options.port = static_cast<int>(port);
  options.num_requests = static_cast<std::size_t>(requests);
  options.connections = static_cast<std::size_t>(connections);
  options.pool_size = static_cast<std::size_t>(pool);
  options.links = static_cast<std::size_t>(links);
  options.seed = static_cast<std::uint64_t>(seed);
  options.scheduler = scheduler;
  options.deadline_seconds = deadline;
  options.rate_per_sec = rate;
  options.hot_fraction = hot_fraction;
  options.drift_period = static_cast<std::size_t>(drift);

  const service::LoadgenReport report = service::RunLoadgen(options);
  std::fputs(report.ToJson().c_str(), stdout);
  if (!report_out.empty()) {
    util::AtomicWriteFile(report_out, report.ToJson());
  }
  // Shed/timeout are legitimate under overload; divergent or failed
  // responses are not.
  return report.Clean() ? 0 : 1;
}

int RunStats(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli stats",
      "send the STATS verb to a serve endpoint and print the counter "
      "snapshot as JSON (a sharded server answers with the tier-wide "
      "aggregate; warm_hit_rate is derived from the response-cache "
      "counters)");
  auto& unix_path = cli.AddString(
      "unix", "", "unix-domain socket path (empty = TCP)");
  auto& host = cli.AddString("host", "127.0.0.1", "server address");
  auto& port = cli.AddInt("port", 0, "server TCP port");
  auto& out = cli.AddString("out", "", "write the JSON here too");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  service::Client client;
  if (!unix_path.empty()) {
    client.ConnectUnix(unix_path);
  } else {
    client.ConnectTcp(host, static_cast<int>(port));
  }
  const service::StatsSnapshot stats = client.Stats();
  const std::string json = stats.ToJson();
  std::fputs(json.c_str(), stdout);
  if (!out.empty()) util::AtomicWriteFile(out, json);
  return 0;
}

int RunChaosSoak(int argc, char** argv) {
  util::CliParser cli(
      "fadesched_cli chaos-soak",
      "seeded fault-injection soak: every request must reach exactly one "
      "byte-identical response or a typed error — 0 lost, 0 duplicated, "
      "0 corrupted");
  auto& unix_path = cli.AddString(
      "unix", "", "existing server's unix socket (empty + port 0 = spin up "
      "an in-process server)");
  auto& host = cli.AddString("host", "127.0.0.1", "existing server address");
  auto& port = cli.AddInt("port", 0, "existing server TCP port");
  auto& requests = cli.AddInt("requests", 1000, "total requests");
  auto& clients = cli.AddInt("clients", 4, "concurrent retrying clients");
  auto& pool = cli.AddInt("pool", 16, "distinct scenario instances");
  auto& links = cli.AddInt("links", 30, "links per instance");
  auto& seed = cli.AddInt("seed", 1,
                          "master seed (scenario pool + fault streams)");
  auto& scheduler = cli.AddString("scheduler", "rle", "scheduler name");
  auto& fault_prob = cli.AddDouble(
      "fault-prob", 0.02,
      "per-operation probability applied to every fault family");
  auto& connect_reset = cli.AddDouble(
      "connect-reset", -1.0, "override for connect-reset (-1 = fault-prob)");
  auto& send_corrupt = cli.AddDouble(
      "send-corrupt", -1.0, "override for send-corrupt (-1 = fault-prob)");
  auto& send_truncate = cli.AddDouble(
      "send-truncate", -1.0, "override for send-truncate (-1 = fault-prob)");
  auto& send_duplicate = cli.AddDouble(
      "send-duplicate", -1.0,
      "override for send-duplicate (-1 = fault-prob)");
  auto& recv_stall = cli.AddDouble(
      "recv-stall", -1.0, "override for recv-stall (-1 = fault-prob)");
  auto& recv_corrupt = cli.AddDouble(
      "recv-corrupt", -1.0, "override for recv-corrupt (-1 = fault-prob)");
  auto& recv_kill = cli.AddDouble(
      "recv-kill", -1.0, "override for recv-kill (-1 = fault-prob)");
  auto& recv_duplicate = cli.AddDouble(
      "recv-duplicate", -1.0,
      "override for recv-duplicate (-1 = fault-prob)");
  auto& stall_seconds = cli.AddDouble(
      "stall-seconds", 0.02, "injected recv stall duration (s)");
  auto& max_attempts = cli.AddInt("max-attempts", 10,
                                  "retry attempts per request");
  auto& backoff = cli.AddDouble("backoff", 0.005,
                                "initial retry backoff (s)");
  auto& max_backoff = cli.AddDouble("max-backoff", 0.25,
                                    "retry backoff cap (s)");
  auto& connect_timeout = cli.AddDouble(
      "connect-timeout", 5.0, "client connect deadline (s); 0 = none");
  auto& io_timeout = cli.AddDouble(
      "io-timeout", 5.0, "client per-operation send/recv deadline (s)");
  auto& drain_mid_run = cli.AddBool(
      "drain-mid-run", false,
      "raise SIGTERM halfway through (in-process server only): the drain "
      "must be clean — pre-drain requests answered, later ones refused "
      "with typed errors");
  auto& allow_unserved = cli.AddBool(
      "allow-unserved", false,
      "count post-drain refusals as unserved instead of failures");
  auto& shrink = cli.AddBool(
      "shrink", false,
      "on failure, delta-debug the fault plan down to a minimal "
      "reproducer");
  auto& trace_out = cli.AddString(
      "trace-out", "", "write the deterministic fault trace here");
  auto& report_out = cli.AddString("report-out", "",
                                   "write the report JSON here");
  auto& repro_out = cli.AddString(
      "repro-out", "", "write the shrunk reproducer line here (--shrink)");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  service::chaos::ChaosSoakOptions options;
  options.endpoint.unix_socket_path = unix_path;
  options.endpoint.host = host;
  options.endpoint.port = static_cast<int>(port);
  options.num_requests = static_cast<std::size_t>(requests);
  options.num_clients = static_cast<std::size_t>(clients);
  options.pool_size = static_cast<std::size_t>(pool);
  options.links = static_cast<std::size_t>(links);
  options.seed = static_cast<std::uint64_t>(seed);
  options.scheduler = scheduler;

  options.plan = service::chaos::ChaosPlan::AllFamilies(
      fault_prob, static_cast<std::uint64_t>(seed));
  using service::chaos::FaultFamily;
  const std::pair<FaultFamily, double> overrides[] = {
      {FaultFamily::kConnectReset, connect_reset},
      {FaultFamily::kSendCorrupt, send_corrupt},
      {FaultFamily::kSendTruncate, send_truncate},
      {FaultFamily::kSendDuplicate, send_duplicate},
      {FaultFamily::kRecvStall, recv_stall},
      {FaultFamily::kRecvCorrupt, recv_corrupt},
      {FaultFamily::kRecvKill, recv_kill},
      {FaultFamily::kRecvDuplicate, recv_duplicate},
  };
  for (const auto& [family, probability] : overrides) {
    if (probability >= 0.0) options.plan.SetProbability(family, probability);
  }
  options.plan.stall_seconds = stall_seconds;
  options.retry.max_attempts = static_cast<std::size_t>(max_attempts);
  options.retry.initial_backoff_seconds = backoff;
  options.retry.max_backoff_seconds = max_backoff;
  options.client.connect_timeout_seconds = connect_timeout;
  options.client.io_timeout_seconds = io_timeout;
  options.drain_mid_run = drain_mid_run;
  options.allow_unserved = allow_unserved;
  if (drain_mid_run) {
    // Exercise the real signal path: the guard converts the raise into
    // util::ShutdownRequested(), which the in-process server's event
    // loop polls — the same drain a production SIGTERM triggers.
    options.on_drain = [] { std::raise(SIGTERM); };
  }

  util::ScopedSignalGuard guard;
  std::printf("chaos plan: %s (seed %llu)\n",
              options.plan.Describe().c_str(),
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);
  const service::chaos::ChaosSoakReport report =
      service::chaos::RunChaosSoak(options);
  std::fputs(report.ToJson().c_str(), stdout);
  if (!report_out.empty()) {
    util::AtomicWriteFile(report_out, report.ToJson());
  }
  if (!trace_out.empty()) {
    util::AtomicWriteFile(trace_out, report.trace);
  }
  if (report.Ok()) return 0;
  std::fprintf(stderr, "chaos-soak FAILED: %s\n",
               report.first_failure.c_str());
  if (shrink) {
    const std::string repro = service::chaos::ShrinkChaosFailure(options);
    std::fprintf(stderr, "%s\n", repro.c_str());
    if (!repro_out.empty()) util::AtomicWriteFile(repro_out, repro + "\n");
  }
  return 1;
}

int RunList() {
  std::printf("registered schedulers:\n");
  for (const std::string& name : sched::KnownSchedulers()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

void PrintTopLevelUsage() {
  std::fputs(
      "fadesched_cli — fading-resistant link scheduling toolbox\n"
      "\n"
      "subcommands:\n"
      "  generate   write a synthetic scenario CSV\n"
      "  info       topology statistics of a scenario\n"
      "  solve      schedule one slot (--slots for a full frame)\n"
      "  simulate   Monte-Carlo fading simulation of a schedule\n"
      "  fault-inject  distributed DLS under control-plane faults\n"
      "  ilp        export the ILP (paper formulas (20)-(22))\n"
      "  sweep      crash-safe multi-point sweep (checkpoint/resume)\n"
      "  queue-sim  slotted dynamic-traffic simulation (arrivals, churn,\n"
      "             per-slot scheduling); --frontier finds lambda*\n"
      "  fuzz       metamorphic fuzzing + oracle checks, shrunk reproducers\n"
      "             (--dynamic: replay oracle on slotted runs)\n"
      "  serve      scheduling server (unix socket / TCP, line protocol);\n"
      "             in-process by default; --shards N forks N crash-only\n"
      "             workers behind a consistent-hash fingerprint router\n"
      "             (SIGHUP = rolling restart)\n"
      "  loadgen    seeded load generator against a serve endpoint (one\n"
      "             epoll thread drives every connection; --drift: sliding\n"
      "             warm working set)\n"
      "  stats      STATS snapshot of a serve endpoint as JSON\n"
      "  chaos-soak seeded socket-fault soak; fails unless zero requests\n"
      "             are lost, duplicated, or corrupted\n"
      "  list       registered scheduler names\n"
      "\n"
      "exit codes (all subcommands): 0 success, 1 runtime failure,\n"
      "2 usage error, 3 watchdog timeout or interrupted mid-run.\n"
      "`serve` exits 0 on a graceful SIGINT/SIGTERM drain (a drained server\n"
      "finished its work); `serve --shards` additionally exits 1 when its\n"
      "flap breaker opens; `loadgen` exits 1 when any response failed or\n"
      "diverged (shed/timeout under overload still exit 0).\n"
      "\n"
      "run `fadesched_cli <subcommand> --help` for flags.\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintTopLevelUsage();
    return fadesched::util::kExitUsage;
  }
  const std::string command = argv[1];
  // Shift argv so subcommand parsers see their own flags as argv[1..].
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (command == "generate") return RunGenerate(sub_argc, sub_argv);
    if (command == "info") return RunInfo(sub_argc, sub_argv);
    if (command == "solve") return RunSolve(sub_argc, sub_argv);
    if (command == "simulate") return RunSimulate(sub_argc, sub_argv);
    if (command == "fault-inject") return RunFaultInject(sub_argc, sub_argv);
    if (command == "ilp") return RunIlp(sub_argc, sub_argv);
    if (command == "sweep") return RunSweep(sub_argc, sub_argv);
    if (command == "queue-sim") return RunQueueSim(sub_argc, sub_argv);
    if (command == "fuzz") return RunFuzzCmd(sub_argc, sub_argv);
    if (command == "serve") return RunServe(sub_argc, sub_argv);
    if (command == "loadgen") return RunLoadgen(sub_argc, sub_argv);
    if (command == "stats") return RunStats(sub_argc, sub_argv);
    if (command == "chaos-soak") return RunChaosSoak(sub_argc, sub_argv);
    if (command == "list") return RunList();
    if (command == "--help" || command == "-h" || command == "help") {
      PrintTopLevelUsage();
      return 0;
    }
  } catch (const fadesched::util::HarnessError& e) {
    std::fprintf(stderr, "error (%s): %s\n",
                 fadesched::util::ErrorKindName(e.kind()), e.what());
    return fadesched::util::ExitCodeForError(e.kind());
  } catch (const fadesched::util::CheckFailure& e) {
    std::fprintf(stderr, "error: %s (%s)\n", e.what(), e.location().c_str());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n\n", command.c_str());
  PrintTopLevelUsage();
  return fadesched::util::kExitUsage;
}
