// Feedback-driven multi-slot retry scheduling.
//
// The one-shot schedulers pick a subset that is *probabilistically* safe
// (Corollary 3.1 bounds each link's outage by ε); over a real slot some
// links still fade out. This module closes the loop: the schedule
// transmits, each slot is one Monte-Carlo channel realization, receivers
// ACK, and failed links retry with exponential backoff until they either
// deliver or exhaust `max_attempts` and are blacklisted. The output is
// what a link-layer actually observes — delivered rate and the
// distribution of delivery delays — rather than the per-slot expectation.
//
// Each slot's realization and decode test over the links transmitting in
// it is the shared kernel sim::DrawRealization (fading_models.hpp), fed
// from one channel::MeanRxPowerTable over the whole schedule.
//
// Determinism: slot t draws from a dedicated xoshiro256++ stream keyed by
// (seed, t), exactly like the Monte-Carlo simulator's per-trial streams,
// so results are bit-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/params.hpp"
#include "mathx/stats.hpp"
#include "net/link_set.hpp"
#include "sim/fading_models.hpp"  // header-only; no fs_sim link dependency

namespace fadesched::sched {

struct FeedbackOptions {
  std::size_t max_slots = 256;     ///< hard cap on simulated slots
  std::uint32_t max_attempts = 8;  ///< blacklist after this many failures
  double backoff_base = 1.0;       ///< slots before the first retry
  double backoff_factor = 2.0;     ///< growth per additional failure
  std::size_t backoff_cap = 64;    ///< max gap between retries (slots)
  std::uint64_t seed = 42;
  /// Channel realization model (the paper's Rayleigh by default).
  sim::FadingOptions fading;

  /// Throws CheckFailure unless slots/attempts are non-zero, the backoff
  /// base ≥ 1 slot with factor ≥ 1 and a non-zero cap, and the fading
  /// options validate.
  void Validate() const;
};

/// Per-link outcome, indexed like the input schedule.
struct FeedbackLinkOutcome {
  net::LinkId link = 0;
  std::uint32_t attempts = 0;   ///< transmissions performed
  bool delivered = false;
  bool blacklisted = false;     ///< gave up after max_attempts failures
  std::size_t delivery_slot = 0;  ///< valid iff delivered
};

struct FeedbackResult {
  std::vector<FeedbackLinkOutcome> outcomes;
  std::size_t slots_used = 0;       ///< last slot with activity, + 1
  std::size_t delivered_links = 0;
  std::size_t blacklisted_links = 0;
  /// Σ λ over delivered links / Σ λ over the whole schedule (1.0 for an
  /// empty schedule: nothing demanded, nothing missed).
  double delivered_rate_fraction = 1.0;
  /// Delivery-slot distribution over delivered links (the delay profile).
  mathx::RunningStats delay_slots;
  /// Attempt-count distribution over every scheduled link.
  mathx::RunningStats attempts_per_link;
};

/// Runs `schedule` through per-slot fading realizations with ACK-driven
/// retries. Links still pending when `max_slots` runs out are reported
/// as neither delivered nor blacklisted. Throws CheckFailure when a
/// schedule id is out of range or listed twice.
FeedbackResult RunFeedbackSchedule(const net::LinkSet& links,
                                   const channel::ChannelParams& params,
                                   const net::Schedule& schedule,
                                   const FeedbackOptions& options = {});

}  // namespace fadesched::sched
