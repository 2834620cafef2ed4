#include "sched/rle.hpp"

#include "channel/batch_interference.hpp"
#include "sched/constants.hpp"
#include "sched/elimination.hpp"
#include "util/check.hpp"

namespace fadesched::sched {

RleScheduler::RleScheduler(RleOptions options) : options_(options) {
  FS_CHECK_MSG(options_.c2 > 0.0 && options_.c2 < 1.0, "c2 must be in (0, 1)");
  FS_CHECK_MSG(options_.c1_scale > 0.0, "c1_scale must be positive");
}

ScheduleResult RleScheduler::Schedule(
    const net::LinkSet& links, const channel::ChannelParams& params) const {
  if (links.Empty()) return FinalizeResult(links, {}, Name());

  std::optional<channel::InterferenceEngine> local_engine;
  const channel::InterferenceEngine& engine =
      channel::ObtainEngine(links, params, options_.interference, local_engine);
  // With per-link power control, every pairwise factor is bounded by the
  // uniform-power expression with γ_th inflated by the max/min power
  // ratio, so computing c1 from the inflated γ_th preserves Theorem 4.3.
  channel::ChannelParams effective = params;
  effective.gamma_th *= links.TxPowerRatio(params.tx_power);
  const EliminationRule rule{
      channel::IncrementalFeasibility::Quantity::kFactor,
      RleC1(effective, options_.c2) * options_.c1_scale,
      options_.c2 * params.GammaEpsilon()};
  return FinalizeResult(links, EliminationScan(links, engine, rule), Name());
}

}  // namespace fadesched::sched
