#include "sim/monte_carlo.hpp"

#include <atomic>

#include "channel/batch_interference.hpp"
#include "rng/xoshiro256.hpp"
#include "util/error.hpp"

namespace fadesched::sim {
namespace {

struct ChunkAccumulator {
  mathx::RunningStats failed;
  mathx::RunningStats throughput;
  std::vector<std::uint64_t> success_count;
};

}  // namespace

SimResult SimulateSchedule(const net::LinkSet& links,
                           const channel::ChannelParams& params,
                           const net::Schedule& schedule,
                           const SimOptions& options,
                           util::ThreadPool& pool) {
  params.Validate();
  options.Validate();
  const std::size_t m = schedule.size();

  SimResult result;
  result.trials = options.trials;
  result.scheduled_links = m;
  result.link_success_rate.assign(m, 0.0);
  // Mean powers over scheduled pairs (validates the ids: in range and
  // distinct). An empty schedule draws nothing and scores zero failures
  // and zero throughput in every trial.
  const std::vector<double> mean =
      channel::MeanRxPowerTable(links, params, schedule);

  // Each *trial* gets its own stream keyed by (seed, trial index), so the
  // drawn variates are identical no matter how trials are partitioned
  // across threads.
  const std::uint64_t master_seed = options.seed;

  const std::size_t num_chunks = pool.NumThreads();
  std::vector<ChunkAccumulator> chunks(std::max<std::size_t>(num_chunks, 1));
  for (auto& chunk : chunks) chunk.success_count.assign(m, 0);

  // Watchdog: the first chunk to observe an expired deadline raises the
  // shared cancel flag so every other chunk bails at its next poll — the
  // whole simulation stops close to the deadline, not just one chunk.
  std::atomic<bool> cancelled{false};

  util::ParallelChunks(
      pool, options.trials,
      [&](std::size_t chunk_index, std::size_t begin, std::size_t end) {
        ChunkAccumulator& acc = chunks[chunk_index];
        std::vector<double> power;
        for (std::size_t trial = begin; trial < end; ++trial) {
          if ((trial - begin) % 32 == 0 &&
              (cancelled.load(std::memory_order_relaxed) ||
               options.deadline.Expired())) {
            cancelled.store(true, std::memory_order_relaxed);
            throw util::TimeoutError(
                "Monte-Carlo simulation exceeded its watchdog deadline");
          }
          // Stream keyed by (seed, trial): thread-count invariant.
          rng::Xoshiro256 gen(master_seed ^
                              (0x9e3779b97f4a7c15ULL * (trial + 1)));
          double failed = 0.0;
          double delivered = 0.0;
          DrawRealization(gen, mean, m, params, options.fading, power,
                          [&](std::size_t j, bool ok) {
                            if (ok) {
                              delivered += links.Rate(schedule[j]);
                              ++acc.success_count[j];
                            } else {
                              failed += 1.0;
                            }
                          });
          acc.failed.Add(failed);
          acc.throughput.Add(delivered);
        }
      });

  std::vector<std::uint64_t> success(m, 0);
  for (const auto& chunk : chunks) {
    result.failed_per_trial.Merge(chunk.failed);
    result.throughput_per_trial.Merge(chunk.throughput);
    for (std::size_t j = 0; j < m; ++j) success[j] += chunk.success_count[j];
  }
  for (std::size_t j = 0; j < m; ++j) {
    result.link_success_rate[j] =
        static_cast<double>(success[j]) / static_cast<double>(options.trials);
  }
  return result;
}

SimResult SimulateSchedule(const net::LinkSet& links,
                           const channel::ChannelParams& params,
                           const net::Schedule& schedule,
                           const SimOptions& options) {
  util::ThreadPool pool(options.threads == 0 ? 1 : options.threads);
  return SimulateSchedule(links, params, schedule, options, pool);
}

}  // namespace fadesched::sim
