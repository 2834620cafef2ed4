#include "sched/feedback.hpp"

#include <cmath>

#include "channel/batch_interference.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::sched {

void FeedbackOptions::Validate() const {
  FS_CHECK_MSG(max_slots > 0, "need at least one slot");
  FS_CHECK_MSG(max_attempts > 0, "need at least one attempt");
  FS_CHECK_MSG(backoff_base >= 1.0, "backoff base must be >= 1 slot");
  FS_CHECK_MSG(backoff_factor >= 1.0, "backoff factor must be >= 1");
  FS_CHECK_MSG(backoff_cap > 0, "backoff cap must be > 0");
  fading.Validate();
}

FeedbackResult RunFeedbackSchedule(const net::LinkSet& links,
                                   const channel::ChannelParams& params,
                                   const net::Schedule& schedule,
                                   const FeedbackOptions& options) {
  params.Validate();
  options.Validate();
  const std::size_t m = schedule.size();

  FeedbackResult result;
  result.outcomes.resize(m);

  // Mean received powers over scheduled pairs (i = interferer index,
  // j = victim index within `schedule`), as in the Monte-Carlo simulator;
  // the table also rejects out-of-range and repeated ids.
  const std::vector<double> mean =
      channel::MeanRxPowerTable(links, params, schedule);
  double total_rate = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    result.outcomes[j].link = schedule[j];
    total_rate += links.Rate(schedule[j]);
  }

  // Gap before the next retry after `attempts` failures: exponential in
  // the failure count, clamped to [1, backoff_cap] slots.
  const auto backoff_gap = [&](std::uint32_t attempts) {
    const double gap =
        options.backoff_base *
        std::pow(options.backoff_factor, static_cast<double>(attempts - 1));
    const double clamped =
        std::min(static_cast<double>(options.backoff_cap), gap);
    return static_cast<std::size_t>(std::max(1.0, clamped));
  };

  std::vector<std::size_t> next_slot(m, 0);
  std::vector<std::size_t> active;
  std::vector<double> active_mean;
  std::vector<double> power;
  std::size_t pending = m;
  double delivered_rate = 0.0;

  for (std::size_t t = 0; t < options.max_slots && pending > 0; ++t) {
    active.clear();
    for (std::size_t j = 0; j < m; ++j) {
      const FeedbackLinkOutcome& out = result.outcomes[j];
      if (!out.delivered && !out.blacklisted && next_slot[j] == t) {
        active.push_back(j);
      }
    }
    if (active.empty()) continue;
    result.slots_used = t + 1;

    // One channel realization for this slot. The stream is keyed by
    // (seed, slot), so the realization is independent of how the caller
    // got here and of any threading around this function.
    rng::Xoshiro256 gen(options.seed ^
                        (0x9e3779b97f4a7c15ULL * (t + 1)));
    const std::size_t a = active.size();
    active_mean.resize(a * a);
    for (std::size_t i = 0; i < a; ++i) {
      for (std::size_t j = 0; j < a; ++j) {
        active_mean[i * a + j] = mean[active[i] * m + active[j]];
      }
    }

    sim::DrawRealization(
        gen, active_mean, a, params, options.fading, power,
        [&](std::size_t j, bool ok) {
          FeedbackLinkOutcome& out = result.outcomes[active[j]];
          ++out.attempts;
          if (ok) {
            out.delivered = true;
            out.delivery_slot = t;
            delivered_rate += links.Rate(out.link);
            --pending;
          } else if (out.attempts >= options.max_attempts) {
            out.blacklisted = true;
            --pending;
          } else {
            next_slot[active[j]] = t + backoff_gap(out.attempts);
          }
        });
  }

  for (const FeedbackLinkOutcome& out : result.outcomes) {
    result.attempts_per_link.Add(static_cast<double>(out.attempts));
    if (out.delivered) {
      ++result.delivered_links;
      result.delay_slots.Add(static_cast<double>(out.delivery_slot));
    }
    if (out.blacklisted) ++result.blacklisted_links;
  }
  result.delivered_rate_fraction =
      total_rate > 0.0 ? delivered_rate / total_rate : 1.0;
  return result;
}

}  // namespace fadesched::sched
