#include "sched/approx_diversity.hpp"

#include "channel/batch_interference.hpp"
#include "sched/constants.hpp"
#include "sched/elimination.hpp"
#include "util/check.hpp"

namespace fadesched::sched {

ApproxDiversityScheduler::ApproxDiversityScheduler(
    ApproxDiversityOptions options)
    : options_(options) {
  FS_CHECK_MSG(options_.c2 > 0.0 && options_.c2 < 1.0, "c2 must be in (0, 1)");
}

ScheduleResult ApproxDiversityScheduler::Schedule(
    const net::LinkSet& links, const channel::ChannelParams& params) const {
  if (links.Empty()) return FinalizeResult(links, {}, Name());

  std::optional<channel::InterferenceEngine> local_engine;
  const channel::InterferenceEngine& engine = channel::ObtainEngine(
      links, params, options_.interference, local_engine);
  channel::ChannelParams effective = params;
  effective.gamma_th *= links.TxPowerRatio(params.tx_power);
  // Deterministic affectance budget: the decode test is Σ a ≤ 1, of which
  // the picked set may use c2.
  const EliminationRule rule{
      channel::IncrementalFeasibility::Quantity::kAffectance,
      ApproxDiversityC1(effective, options_.c2), options_.c2};
  return FinalizeResult(links, EliminationScan(links, engine, rule), Name());
}

}  // namespace fadesched::sched
