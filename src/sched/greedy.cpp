#include "sched/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "channel/batch_interference.hpp"

namespace fadesched::sched {

FadingGreedyScheduler::FadingGreedyScheduler(FadingGreedyOptions options)
    : options_(options) {}

ScheduleResult FadingGreedyScheduler::Schedule(
    const net::LinkSet& links, const channel::ChannelParams& params) const {
  if (links.Empty()) return FinalizeResult(links, {}, Name());

  std::optional<channel::InterferenceEngine> local_engine;
  const channel::InterferenceEngine& engine =
      channel::ObtainEngine(links, params, options_.interference, local_engine);
  const double gamma_eps = params.FeasibilityBudget();
  const std::size_t n = links.Size();

  // Descending rate; break rate ties by shorter length (easier to keep
  // feasible), then by id.
  std::vector<net::LinkId> order(n);
  std::iota(order.begin(), order.end(), net::LinkId{0});
  std::sort(order.begin(), order.end(), [&](net::LinkId a, net::LinkId b) {
    if (links.Rate(a) != links.Rate(b)) return links.Rate(a) > links.Rate(b);
    if (links.Length(a) != links.Length(b)) {
      return links.Length(a) < links.Length(b);
    }
    return a < b;
  });

  // acc maintains noise factor + Σ f_ij from the current schedule onto
  // every receiver j (per-receiver Neumaier sums), so each candidate test
  // is O(|schedule|) cached additions through the engine's tables.
  // Seeding with the noise factor makes links that cannot decode even
  // alone fail the budget test immediately. Only the members' and the
  // unvisited candidates' sums are read again, so a commit adds onto those
  // alone (an infinite budget gates without pruning).
  channel::IncrementalFeasibility acc(engine);
  std::vector<char> read_again(n, 1);
  std::vector<net::LinkId> rejected;
  std::vector<double> rejected_x;  // the rejected candidates' receivers
  std::vector<double> rejected_y;
  net::Schedule schedule;
  for (net::LinkId candidate : order) {
    // The candidate itself must stay within budget, and must not push any
    // current member over budget.
    if (acc.Sum(candidate) > gamma_eps ||
        acc.AnyOverWith(candidate, schedule, gamma_eps)) {
      read_again[candidate] = 0;
      rejected.push_back(candidate);
      rejected_x.push_back(links.Receiver(candidate).x);
      rejected_y.push_back(links.Receiver(candidate).y);
      continue;
    }
    // A committed sender on a rejected candidate's receiver is a domain
    // error all the same, so the engine is asked for those terms and
    // raises it. Only a gap under 10⁻¹⁵⁰ in both coordinates squares to a
    // zero distance, so farther pairs need no query.
    const geom::Vec2 sender = links.Sender(candidate);
    bool near = false;
    for (std::size_t k = 0; k < rejected.size(); ++k) {
      near |= (std::abs(sender.x - rejected_x[k]) < 1e-150) &
              (std::abs(sender.y - rejected_y[k]) < 1e-150);
    }
    if (near) {
      for (const net::LinkId r : rejected) {
        static_cast<void>(engine.Factor(candidate, r));
      }
    }
    // Commit: the new sender now interferes with every other receiver
    // that is still read (current members and future candidates).
    acc.AddAndPrune(candidate, read_again,
                    std::numeric_limits<double>::infinity());
    schedule.push_back(candidate);
  }
  return FinalizeResult(links, std::move(schedule), Name());
}

}  // namespace fadesched::sched
