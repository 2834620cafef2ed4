#include "sched/elimination.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "geom/spatial_hash.hpp"

namespace fadesched::sched {

net::Schedule EliminationScan(const net::LinkSet& links,
                              const channel::InterferenceEngine& engine,
                              const EliminationRule& rule) {
  const std::size_t n = links.Size();

  // Visit order: ascending link length, ties by id (deterministic).
  std::vector<net::LinkId> order(n);
  std::iota(order.begin(), order.end(), net::LinkId{0});
  std::sort(order.begin(), order.end(), [&](net::LinkId a, net::LinkId b) {
    if (links.Length(a) != links.Length(b)) {
      return links.Length(a) < links.Length(b);
    }
    return a < b;
  });

  // Sender index for rule A. Bucket size on the order of the smallest
  // elimination radius keeps queries tight.
  const geom::SpatialHash sender_index(
      links.Senders(), std::max(1e-9, rule.c1 * links.MinLength()));

  // Per-receiver sums seeded with the noise term — 0 in the paper's
  // N₀ = 0 setting — so rule B accounts for noise, and hopeless links drop
  // up front.
  channel::IncrementalFeasibility acc(engine, rule.quantity);
  std::vector<char> alive(n, 1);
  for (net::LinkId j = 0; j < n; ++j) {
    if (acc.Sum(j) > rule.budget) alive[j] = 0;
  }
  net::Schedule picked;
  for (const net::LinkId i : order) {
    if (!alive[i]) continue;
    picked.push_back(i);
    alive[i] = 0;

    // Rule A (Algorithm 2, line 4). The paper uses a strict '<'; the
    // index's inclusive boundary differs only on a measure-zero set and
    // is conservative.
    sender_index.ForEachInRadius(links.Receiver(i), rule.c1 * links.Length(i),
                                 [&](std::size_t j) { alive[j] = 0; });

    // Rule B (line 5): the pick's term onto every surviving receiver, and
    // those whose budget is now blown drop, in one pass.
    acc.AddAndPrune(i, alive, rule.budget);
  }
  return picked;
}

}  // namespace fadesched::sched
