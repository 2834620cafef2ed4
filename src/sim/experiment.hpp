// Experiment runner: the harness behind every figure reproduction.
//
// One experiment *point* fixes the topology parameters and channel; the
// runner then, for each random seed, generates an instance, runs every
// requested scheduler, evaluates the schedule both by Monte-Carlo fading
// simulation and by the closed-form expectations, and aggregates across
// seeds. The benches sweep points (over N or α) and print CSV series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/params.hpp"
#include "mathx/stats.hpp"
#include "net/scenario.hpp"
#include "sim/fading_models.hpp"
#include "util/csv.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::sched {
class Scheduler;
}  // namespace fadesched::sched

namespace fadesched::sim {

struct ExperimentPoint {
  std::size_t num_links = 100;
  channel::ChannelParams channel;
  net::UniformScenarioParams scenario;
};

struct ExperimentConfig {
  std::vector<std::string> algorithms;
  std::size_t num_seeds = 10;       ///< independent topologies per point
  std::uint64_t base_seed = 1;
  std::size_t trials = 1000;        ///< fading realizations per instance
  unsigned threads = 0;             ///< 0 = hardware concurrency
  FadingOptions fading;             ///< channel realization model
};

/// Per-algorithm aggregation across seeds; each RunningStats sample is one
/// seed's value (for measured_* that value is already a mean over trials).
struct AlgoSummary {
  std::string algorithm;
  mathx::RunningStats scheduled_links;
  mathx::RunningStats claimed_rate;        ///< Σ λ the scheduler selected
  mathx::RunningStats measured_failed;     ///< Monte-Carlo mean failures/slot
  mathx::RunningStats measured_throughput; ///< Monte-Carlo mean delivered rate
  mathx::RunningStats expected_failed;     ///< closed-form E[#failed]
  mathx::RunningStats expected_throughput; ///< closed-form E[throughput]
  mathx::RunningStats runtime_ms;          ///< scheduler wall time
};

/// AlgoSummary's seven accumulators, in the order RunExperimentSeed
/// reports them and sweep checkpoints store them.
struct SummaryStat {
  const char* name;
  mathx::RunningStats AlgoSummary::*field;
};
inline constexpr SummaryStat kSummaryStats[] = {
    {"scheduled_links", &AlgoSummary::scheduled_links},
    {"claimed_rate", &AlgoSummary::claimed_rate},
    {"measured_failed", &AlgoSummary::measured_failed},
    {"measured_throughput", &AlgoSummary::measured_throughput},
    {"expected_failed", &AlgoSummary::expected_failed},
    {"expected_throughput", &AlgoSummary::expected_throughput},
    {"runtime_ms", &AlgoSummary::runtime_ms},
};

/// The topology of seed `seed_index`; every algorithm of that seed
/// schedules the same one.
net::LinkSet SeedTopology(const ExperimentPoint& point,
                          const ExperimentConfig& config,
                          std::size_t seed_index);

/// One algorithm on one seed's topology, the per-seed body of both
/// RunExperimentPoint and RunExperimentSweep: schedules, simulates
/// config.trials fading realizations under `deadline`, and evaluates the
/// Theorem 3.1 closed form. Fading draws are seeded
/// (base_seed + seed_index)·1000003 + algo_index, decorrelating seeds and
/// algorithms. Returns one sample per kSummaryStats entry.
std::vector<double> RunExperimentSeed(const net::LinkSet& links,
                                      const ExperimentPoint& point,
                                      const ExperimentConfig& config,
                                      const sched::Scheduler& scheduler,
                                      std::size_t algo_index,
                                      std::size_t seed_index,
                                      const util::Deadline& deadline,
                                      util::ThreadPool& pool);

std::vector<AlgoSummary> RunExperimentPoint(const ExperimentPoint& point,
                                            const ExperimentConfig& config,
                                            util::ThreadPool& pool);

/// CSV header used by all figure benches:
/// x,algorithm,links_scheduled,claimed_rate,failed_mean,failed_ci95,
/// throughput_mean,throughput_ci95,expected_failed,expected_throughput,
/// sched_ms
util::CsvTable MakeSummaryTable(const std::string& x_name);

/// Append one row per algorithm for the given x value.
void AppendSummaryRows(util::CsvTable& table, double x_value,
                       const std::vector<AlgoSummary>& summaries);

}  // namespace fadesched::sim
