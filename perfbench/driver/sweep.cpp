// fig_sweep: the researcher's regenerate-a-figure path. Each "request" is
// one whole `fadesched_cli sweep` run over the paper's Figure 5a/6a axis
// (links 100..500; ldp, rle, approx_logn, approx_diversity; Monte Carlo
// plus the Theorem 3.1 closed form; per-seed checkpoints), on 2 simulator
// threads. Sweeps repeat back to back for the run's seconds.
//
// Set-up runs the same sweep kSetups times untimed; the reference sweeps
// must agree byte for byte, and the first is the reference CSV.
//
// Checks: every sweep exits 0 and prints a CSV byte-identical to the
// reference, and every point's Monte-Carlo failed_mean matches the
// closed-form expected_failed within Monte-Carlo error (see PointsOk).
// The traced run replays the same sweep in-process through sched,
// sim::SimulateSchedule, sim::ComputeExpectedMetrics and
// sim::SweepCheckpoint::Save, and its CSV must match the CLI's too.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "net/scenario.hpp"
#include "process.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/exact_metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/monte_carlo.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace sim = fadesched::sim;

const std::vector<double> kLinks{100, 200, 300, 400, 500};
const std::vector<std::string> kAlgorithms{"ldp", "rle", "approx_logn",
                                           "approx_diversity"};
constexpr std::size_t kSeeds = 3;
constexpr std::size_t kTrials = 1000;
constexpr unsigned kThreads = 2;
constexpr std::size_t kSetups = 3;  ///< reference sweeps; setup_s is their median

std::uint64_t BaseSeed(const Args& args) { return 1 + args.seed * 16; }

std::vector<std::string> SweepArgv(const Args& args) {
  std::string xs;
  for (const double x : kLinks) xs += (xs.empty() ? "" : ",") + std::to_string(static_cast<int>(x));
  std::string algorithms;
  for (const std::string& a : kAlgorithms) algorithms += (algorithms.empty() ? "" : ",") + a;
  return {args.cli, "sweep", "--x", "links", "--xs", xs, "--algorithms",
          algorithms, "--threads", std::to_string(kThreads), "--deterministic",
          "--seeds", std::to_string(kSeeds), "--trials", std::to_string(kTrials),
          "--base-seed", std::to_string(BaseSeed(args)), "--checkpoint",
          args.run_dir + "/fig_sweep.ck"};
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream in(line);
  for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
  return cells;
}

/// Points whose every row passes: the Monte-Carlo failed_mean must match
/// the Theorem 3.1 expected_failed within 6σ of Monte-Carlo error plus the
/// CSV's 3-decimal rounding (two cells, 0.001; 0.0015 kept as margin).
/// Per-link failures are independent given the topology, so
/// Var(failed per trial) ≤ E[failed] and σ ≤ sqrt(E[failed] / (trials ·
/// seeds)). failed_ci95 is not the band: it spans topology variance over 3
/// seeds, so it is too wide to notice a 15% simulator bias, and it prints
/// as 0 on LDP's near-failure-free rows.
std::size_t PointsOk(const std::string& csv, std::string* why) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> header = SplitCsvLine(line);
  std::map<std::string, std::size_t> col;
  for (std::size_t i = 0; i < header.size(); ++i) col[header[i]] = i;
  for (const char* name : {"num_links", "algorithm", "failed_mean",
                           "expected_failed"}) {
    if (col.count(name) == 0) {
      *why = std::string("CSV lacks column ") + name;
      return 0;
    }
  }
  std::map<double, std::size_t> rows_ok;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != header.size()) continue;
    const double x = std::stod(cells[col["num_links"]]);
    const double measured = std::stod(cells[col["failed_mean"]]);
    const double expected = std::stod(cells[col["expected_failed"]]);
    const double sigma = std::sqrt(std::max(expected, 1e-3) /
                                   static_cast<double>(kTrials * kSeeds));
    if (std::fabs(measured - expected) <= 0.0015 + 6.0 * sigma) {
      ++rows_ok[x];
    } else {
      *why = "failed_mean outside the Theorem 3.1 band: " + line;
    }
  }
  std::size_t points = 0;
  for (const double x : kLinks) {
    if (rows_ok[x] == kAlgorithms.size()) ++points;
  }
  return points;
}

/// One side of the in-process sweep replay: its own schedulers,
/// aggregates, checkpoint and CSV, exactly as RunExperimentSweep keeps them.
struct ReplaySide {
  std::string checkpoint_path;
  sim::SweepCheckpoint checkpoint;
  fadesched::util::CsvTable table = sim::MakeSummaryTable("num_links");
  std::vector<fadesched::sched::SchedulerPtr> schedulers;
  std::vector<sim::AlgoSummary> summaries;
};

/// One seed of one point: every scheduler, its Monte-Carlo simulation and
/// closed form, then the per-seed checkpoint write. With a tracer the seed
/// is a "request" span with one child span per public call.
void ReplaySeed(const Args& args, std::size_t p, std::size_t s,
                const fadesched::net::LinkSet& links,
                fadesched::util::ThreadPool& pool, ReplaySide& side,
                Tracer* tracer) {
  const fadesched::channel::ChannelParams channel;
  const std::uint64_t id = p * kSeeds + s;
  Span root(tracer, "request", id);
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    fadesched::sched::ScheduleResult result;
    {
      Span span(tracer, "sched." + kAlgorithms[a], id);
      result = side.schedulers[a]->Schedule(links, channel);
    }
    sim::SimOptions options;
    options.trials = kTrials;
    options.seed = (BaseSeed(args) + s) * 1000003ULL + a;
    sim::SimResult simulated;
    {
      Span span(tracer, "sim.simulate_schedule", id);
      simulated =
          sim::SimulateSchedule(links, channel, result.schedule, options, pool);
    }
    sim::ExpectedMetrics expected;
    {
      Span span(tracer, "sim.expected_metrics", id);
      expected = sim::ComputeExpectedMetrics(links, channel, result.schedule);
    }
    sim::AlgoSummary& summary = side.summaries[a];
    summary.scheduled_links.Add(static_cast<double>(result.schedule.size()));
    summary.claimed_rate.Add(result.claimed_rate);
    summary.measured_failed.Add(simulated.failed_per_trial.Mean());
    summary.measured_throughput.Add(simulated.throughput_per_trial.Mean());
    summary.expected_failed.Add(expected.expected_failed);
    summary.expected_throughput.Add(expected.expected_throughput);
    summary.runtime_ms.Add(0.0);  // --deterministic
  }
  sim::PointCheckpoint& point = side.checkpoint.points[p];
  point.x = kLinks[p];
  point.summaries = side.summaries;
  point.seeds_done = s + 1;
  point.complete = s + 1 == kSeeds;
  Span span(tracer, "sim.checkpoint", id);
  side.checkpoint.Save(side.checkpoint_path);
}

struct SweepReplay {
  std::string csv[2];            ///< untraced, traced
  double untraced_us = 0.0;      ///< the whole untraced sweep
  std::vector<double> ratio;     ///< traced / untraced time, per seed
};

/// The sweep's work in-process, in the CLI's order, twice over: an
/// untraced and a traced side run each seed back to back, alternating
/// which goes first, so host contention hits both alike.
SweepReplay ReplaySweep(const Args& args, Tracer& tracer) {
  fadesched::util::ThreadPool pool(kThreads);
  ReplaySide sides[2];
  for (std::size_t i = 0; i < 2; ++i) {
    sides[i].checkpoint_path = args.run_dir + "/replay" + std::to_string(i) + ".ck";
    sides[i].checkpoint.points.resize(kLinks.size());
  }
  SweepReplay replay;
  for (std::size_t p = 0; p < kLinks.size(); ++p) {
    for (ReplaySide& side : sides) {
      side.schedulers.clear();
      side.summaries.assign(kAlgorithms.size(), sim::AlgoSummary{});
      for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
        side.schedulers.push_back(fadesched::sched::MakeScheduler(kAlgorithms[a]));
        side.summaries[a].algorithm = kAlgorithms[a];
      }
    }
    for (std::size_t s = 0; s < kSeeds; ++s) {
      fadesched::rng::Xoshiro256 gen(BaseSeed(args) + s);
      const fadesched::net::LinkSet links = fadesched::net::MakeUniformScenario(
          static_cast<std::size_t>(kLinks[p]),
          fadesched::net::UniformScenarioParams{}, gen);
      double us[2] = {0.0, 0.0};
      for (std::size_t turn = 0; turn < 2; ++turn) {
        const std::size_t traced = (turn + p * kSeeds + s) % 2;
        const Clock::time_point start = Clock::now();
        ReplaySeed(args, p, s, links, pool, sides[traced],
                   traced == 1 ? &tracer : nullptr);
        us[traced] = 1e6 * SecondsSince(start);
      }
      replay.untraced_us += us[0];
      replay.ratio.push_back(us[1] / us[0]);
    }
    for (ReplaySide& side : sides) {
      sim::AppendSummaryRows(side.table, kLinks[p], side.summaries);
    }
  }
  for (std::size_t i = 0; i < 2; ++i) {
    ::unlink(sides[i].checkpoint_path.c_str());
    replay.csv[i] = sides[i].table.ToString();
  }
  return replay;
}

bool ExitedCleanly(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

}  // namespace

Result RunSweepWorkload(const Args& args) {
  Result result;

  const std::vector<std::string> argv = SweepArgv(args);
  // setup_s is the median CPU time (user+system) of the reference sweeps;
  // their wall time follows the host's other tenants and goes to stderr.
  std::vector<double> setup_cpu, setup_wall;
  std::string reference;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const ChildRun run = RunToExit(argv);
    if (!ExitedCleanly(run.status)) {
      result.Fail("reference sweep exited with status " + std::to_string(run.status));
    } else if (i > 0 && run.out != reference) {
      result.Fail("reference sweeps printed different CSVs");
    }
    if (i == 0) reference = run.out;
    setup_cpu.push_back(run.cpu_seconds);
    setup_wall.push_back(run.wall_seconds);
  }

  std::vector<ChildRun> runs;
  std::size_t points = 0, points_ok = 0;
  const double self_before = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  while (runs.empty() || SecondsSince(start) < args.seconds) {
    runs.push_back(RunToExit(argv));
    const ChildRun& run = runs.back();
    Note("fig_sweep sweep %zu: %.1f ms wall, %.3f s cpu", runs.size() - 1,
         1000.0 * run.wall_seconds, run.cpu_seconds);
    points += kLinks.size();
    std::string why;
    if (!ExitedCleanly(run.status)) {
      result.Fail("sweep exited with status " + std::to_string(run.status));
    } else if (run.out != reference) {
      result.Fail("sweep CSV differs from the reference sweep's");
    } else {
      const std::size_t ok = PointsOk(run.out, &why);
      points_ok += ok;
      if (ok != kLinks.size()) result.Fail(why);
    }
  }
  const double elapsed = SecondsSince(start);
  const double self_cpu = SelfCpuSeconds() - self_before;

  std::vector<double> wall_ms, cpu_s;
  double peak_rss_mb = 0.0;
  for (const ChildRun& run : runs) {
    wall_ms.push_back(1000.0 * run.wall_seconds);
    cpu_s.push_back(run.cpu_seconds);
    peak_rss_mb = std::max(peak_rss_mb, run.max_rss_mb);
  }
  result.attempted = points;
  result.failed = points - points_ok;
  const double sweeps = static_cast<double>(runs.size());
  const double points_per_sweep = static_cast<double>(kLinks.size());
  const double checked_share =
      static_cast<double>(points_ok) / static_cast<double>(points);
  // Medians over the sweeps, like the served workloads' medians over
  // windows. Wall-clock figures are diagnostics, as for the served workloads.
  Note("fig_sweep: %zu sweeps, %zu/%zu points checked in %.3f s; sweep_s "
       "%.4f, sweep_cpu_s %.4f, throughput_rps %.4f points/s, p90_ms %.1f, "
       "p99_ms %.1f over %zu samples; set-up wall %.4f s",
       runs.size(), points_ok, points, elapsed, Quantile(wall_ms, 0.5) / 1000.0,
       Quantile(cpu_s, 0.5),
       checked_share * points_per_sweep / (Quantile(wall_ms, 0.5) / 1000.0),
       Quantile(wall_ms, 0.9), Quantile(wall_ms, 0.99), wall_ms.size(),
       Quantile(setup_wall, 0.5));

  if (!args.trace) {
    result.Add("server_cpu_us_per_req", 1e6 * Quantile(cpu_s, 0.5) / points_per_sweep,
               "us");
    result.Add("success_rate", checked_share, "ratio");
    result.Add("setup_s", Quantile(setup_cpu, 0.5), "s");
    result.Add("rss_mb", peak_rss_mb, "MB");
    return result;
  }

  Tracer tracer;
  const SweepReplay replay = ReplaySweep(args, tracer);
  tracer.WriteJsonLines(args.run_dir + "/fig_sweep.spans.jsonl");
  if (replay.csv[0] != reference || replay.csv[1] != replay.csv[0]) {
    result.Fail("in-process sweep replay CSV differs from the CLI's");
  }

  const std::map<std::string, Tracer::SelfTime> self = tracer.SelfTimes();
  const auto mean = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.spans == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.spans);
  };
  for (const char* name :
       {"protocol.parse_us", "request.fingerprint_us", "protocol.format_response_us",
        "scenario_cache.lookup_us", "scenario_cache.store_us"}) {
    result.Add(name, 0.0, "us");
  }
  result.Add("scenario_cache.evictions", 0.0, "count/req");
  result.Add("scenario_cache.response_hit_rate", 0.0, "ratio");
  result.Add("scenario_cache.scenario_hit_rate", 0.0, "ratio");
  result.Add("channel.engine_build_us", 0.0, "us");
  for (const std::string& name : kSchedulers) {
    result.Add("sched." + name + "_us", mean("sched." + name), "us");
  }
  result.Add("batcher.shed", 0.0, "count");
  result.Add("batcher.queue_delay_us", 0.0, "us");
  for (const char* name :
       {"shard.frame_scan_us", "shard.routing_key_us", "shard.pipe_codec_us"}) {
    result.Add(name, 0.0, "us");
  }
  result.Add("sim.simulate_schedule_us", mean("sim.simulate_schedule"), "us");
  result.Add("sim.expected_metrics_us", mean("sim.expected_metrics"), "us");
  result.Add("sim.checkpoint_us", mean("sim.checkpoint"), "us");
  // Sweep wall time not covered by the replayed calls: process start,
  // thread-pool spin-up, CSV output.
  result.Add("transport.unattributed_us",
             1000.0 * Quantile(wall_ms, 0.5) - replay.untraced_us, "us");
  result.Add("driver.cpu_us_per_req", 1e6 * self_cpu / sweeps, "us");
  result.Add("tracing.overhead_pct",
             100.0 * (Quantile(replay.ratio, 0.5) - 1.0), "%");
  return result;
}

}  // namespace perfbench
