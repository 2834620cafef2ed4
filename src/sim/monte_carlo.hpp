// Monte-Carlo transmission simulator under the Rayleigh-fading model.
//
// For a fixed schedule P, each trial draws every instantaneous power
// Z_ij ~ Exp(mean P·d_ij^{-α}) independently (paper §II), computes each
// scheduled receiver's SINR X_j = Z_jj / Σ_{i∈P\j} Z_ij, and records which
// links decode (X_j ≥ γ_th). The draw and the decode test are the shared
// kernel sim::DrawRealization (fading_models.hpp) over the mean table of
// channel::MeanRxPowerTable; its Rayleigh draw applies the log to all m²
// uniforms of a trial in one batched SIMD call. The paper's evaluation
// metrics — number of failed transmissions and throughput — are per-trial
// functionals whose distribution we summarize across trials.
//
// Trials are split across a thread pool; every trial owns a dedicated
// xoshiro256++ stream derived from the master seed, so results are
// bit-identical for any thread count, and — because the batched draw's
// SIMD tiers reproduce the scalar variates bit for bit — for any
// FADESCHED_SIMD_LEVEL setting.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/params.hpp"
#include "sim/fading_models.hpp"
#include "mathx/stats.hpp"
#include "net/link_set.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::sim {

struct SimOptions {
  std::size_t trials = 2000;
  std::uint64_t seed = 42;
  /// 0 = use the pool's thread count; simulation is deterministic either way.
  unsigned threads = 0;
  /// Channel realization model; defaults to the paper's Rayleigh fading.
  FadingOptions fading;

  /// Watchdog: trial chunks poll this deadline and abort the whole
  /// simulation with HarnessError(kTimeout) once it expires. Disabled by
  /// default. Timed-out runs produce NO partial result — the harness
  /// records the seed as failed instead.
  util::Deadline deadline;

  /// Throws CheckFailure unless trials > 0 and the fading options validate.
  void Validate() const {
    FS_CHECK_MSG(trials > 0, "need at least one trial");
    fading.Validate();
  }
};

struct SimResult {
  /// Distribution of the per-trial count of scheduled links that failed.
  mathx::RunningStats failed_per_trial;
  /// Distribution of per-trial successfully delivered rate Σ λ_j·1[X_j≥γ].
  mathx::RunningStats throughput_per_trial;
  /// Empirical per-link success frequency, indexed like `schedule`.
  std::vector<double> link_success_rate;
  std::size_t trials = 0;
  std::size_t scheduled_links = 0;
};

/// Simulates `schedule` transmitting simultaneously for `options.trials`
/// independent fading realizations, using `pool` for parallelism. Throws
/// CheckFailure when a schedule id is out of range or listed twice.
SimResult SimulateSchedule(const net::LinkSet& links,
                           const channel::ChannelParams& params,
                           const net::Schedule& schedule,
                           const SimOptions& options,
                           util::ThreadPool& pool);

/// Convenience overload with a private single-thread pool.
SimResult SimulateSchedule(const net::LinkSet& links,
                           const channel::ChannelParams& params,
                           const net::Schedule& schedule,
                           const SimOptions& options);

}  // namespace fadesched::sim
