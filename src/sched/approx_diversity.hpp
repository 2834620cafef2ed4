// ApproxDiversity — the constant-approximation scheduler of Goussevskaia,
// Wattenhofer, Halldórsson & Welzl (INFOCOM'09), the paper's second
// comparison baseline.
//
// Same greedy skeleton as RLE — repeatedly take the shortest remaining
// link and eliminate conflicting links — but conflicts are judged by the
// *deterministic* SINR model: accumulated mean-power affectance above a
// budget c2 (of the total budget 1 ⇔ mean SINR ≥ γ_th), and a sender
// clear-out radius derived without any fading outage margin. Like
// ApproxLogN it is fading-susceptible by construction.
#pragma once

#include "channel/batch_interference.hpp"
#include "sched/scheduler.hpp"

namespace fadesched::sched {

struct ApproxDiversityOptions {
  /// Affectance budget split, analogous to RLE's c2.
  double c2 = 0.5;

  /// How the elimination loop obtains affectances.
  channel::EngineOptions interference;
};

class ApproxDiversityScheduler final : public Scheduler {
 public:
  explicit ApproxDiversityScheduler(ApproxDiversityOptions options = {});

  [[nodiscard]] std::string Name() const override { return "approx_diversity"; }
  [[nodiscard]] ScheduleResult Schedule(
      const net::LinkSet& links,
      const channel::ChannelParams& params) const override;

 private:
  ApproxDiversityOptions options_;
};

}  // namespace fadesched::sched
