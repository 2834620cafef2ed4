#include "sched/graph_greedy.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

namespace fadesched::sched {

GraphGreedyScheduler::GraphGreedyScheduler(GraphGreedyOptions options)
    : options_(options) {}

ScheduleResult GraphGreedyScheduler::Schedule(
    const net::LinkSet& links, const channel::ChannelParams& params) const {
  // The protocol model has no SINR parameters; `params` is accepted for
  // interface uniformity (and validated so misuse surfaces early).
  params.Validate();
  if (links.Empty()) return FinalizeResult(links, {}, Name());

  const channel::GraphInterference graph(links, options_.graph);
  const std::size_t n = links.Size();

  // Descending rate, ties by shorter length then id — mirrors the other
  // greedy schedulers so comparisons isolate the interference model.
  std::vector<net::LinkId> order(n);
  std::iota(order.begin(), order.end(), net::LinkId{0});
  std::sort(order.begin(), order.end(), [&](net::LinkId a, net::LinkId b) {
    if (links.Rate(a) != links.Rate(b)) return links.Rate(a) > links.Rate(b);
    if (links.Length(a) != links.Length(b)) {
      return links.Length(a) < links.Length(b);
    }
    return a < b;
  });

  net::Schedule kept;
  for (net::LinkId candidate : order) {
    const bool clashes =
        std::any_of(kept.begin(), kept.end(), [&](net::LinkId member) {
          return graph.Conflict(candidate, member);
        });
    if (!clashes) kept.push_back(candidate);
  }
  return FinalizeResult(links, std::move(kept), Name());
}

}  // namespace fadesched::sched
