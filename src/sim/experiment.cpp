#include "sim/experiment.hpp"

#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"
#include "sim/exact_metrics.hpp"
#include "sim/monte_carlo.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace fadesched::sim {

net::LinkSet SeedTopology(const ExperimentPoint& point,
                          const ExperimentConfig& config,
                          std::size_t seed_index) {
  rng::Xoshiro256 gen(config.base_seed + seed_index);
  return net::MakeUniformScenario(point.num_links, point.scenario, gen);
}

std::vector<double> RunExperimentSeed(const net::LinkSet& links,
                                      const ExperimentPoint& point,
                                      const ExperimentConfig& config,
                                      const sched::Scheduler& scheduler,
                                      std::size_t algo_index,
                                      std::size_t seed_index,
                                      const util::Deadline& deadline,
                                      util::ThreadPool& pool) {
  util::Stopwatch watch;
  const sched::ScheduleResult result = scheduler.Schedule(links, point.channel);
  const double sched_ms = watch.Milliseconds();

  SimOptions sim_options;
  sim_options.trials = config.trials;
  sim_options.fading = config.fading;
  sim_options.deadline = deadline;
  sim_options.seed = (config.base_seed + seed_index) * 1000003ULL + algo_index;
  const SimResult sim = SimulateSchedule(links, point.channel, result.schedule,
                                         sim_options, pool);
  const ExpectedMetrics expected =
      ComputeExpectedMetrics(links, point.channel, result.schedule);
  return {static_cast<double>(result.schedule.size()),
          result.claimed_rate,
          sim.failed_per_trial.Mean(),
          sim.throughput_per_trial.Mean(),
          expected.expected_failed,
          expected.expected_throughput,
          sched_ms};
}

std::vector<AlgoSummary> RunExperimentPoint(const ExperimentPoint& point,
                                            const ExperimentConfig& config,
                                            util::ThreadPool& pool) {
  FS_CHECK_MSG(!config.algorithms.empty(), "no algorithms requested");
  FS_CHECK_MSG(config.num_seeds > 0, "need at least one seed");
  point.channel.Validate();

  std::vector<AlgoSummary> summaries;
  std::vector<sched::SchedulerPtr> schedulers;
  for (const std::string& name : config.algorithms) {
    schedulers.push_back(sched::MakeScheduler(name));
    AlgoSummary summary;
    summary.algorithm = name;
    summaries.push_back(std::move(summary));
  }

  for (std::size_t s = 0; s < config.num_seeds; ++s) {
    const net::LinkSet links = SeedTopology(point, config, s);
    for (std::size_t a = 0; a < schedulers.size(); ++a) {
      const std::vector<double> sample = RunExperimentSeed(
          links, point, config, *schedulers[a], a, s, util::Deadline(), pool);
      for (std::size_t m = 0; m < sample.size(); ++m) {
        (summaries[a].*kSummaryStats[m].field).Add(sample[m]);
      }
    }
  }
  return summaries;
}

util::CsvTable MakeSummaryTable(const std::string& x_name) {
  return util::CsvTable({x_name, "algorithm", "links_scheduled",
                         "claimed_rate", "failed_mean", "failed_ci95",
                         "throughput_mean", "throughput_ci95",
                         "expected_failed", "expected_throughput",
                         "sched_ms"});
}

void AppendSummaryRows(util::CsvTable& table, double x_value,
                       const std::vector<AlgoSummary>& summaries) {
  for (const AlgoSummary& s : summaries) {
    util::CsvRowBuilder(table)
        .Add(util::FormatDouble(x_value))
        .Add(s.algorithm)
        .Add(util::FormatDouble(s.scheduled_links.Mean(), 2))
        .Add(util::FormatDouble(s.claimed_rate.Mean(), 2))
        .Add(util::FormatDouble(s.measured_failed.Mean(), 3))
        .Add(util::FormatDouble(s.measured_failed.ConfidenceHalfWidth95(), 3))
        .Add(util::FormatDouble(s.measured_throughput.Mean(), 3))
        .Add(util::FormatDouble(s.measured_throughput.ConfidenceHalfWidth95(), 3))
        .Add(util::FormatDouble(s.expected_failed.Mean(), 3))
        .Add(util::FormatDouble(s.expected_throughput.Mean(), 3))
        .Add(util::FormatDouble(s.runtime_ms.Mean(), 3))
        .Commit();
  }
}

}  // namespace fadesched::sim
