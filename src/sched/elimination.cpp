#include "sched/elimination.hpp"

#include <limits>
#include <vector>

#include "geom/vec2.hpp"
#include "util/check.hpp"

namespace fadesched::sched {

net::Schedule EliminationScan(const net::LinkSet& links,
                              const channel::InterferenceEngine& engine,
                              const EliminationRule& rule) {
  const std::size_t n = links.Size();
  const std::span<const geom::Vec2> senders = links.Senders();
  const std::span<const double> lengths = links.Lengths();

  // Per-receiver sums seeded with the noise term — 0 in the paper's
  // N₀ = 0 setting — so rule B accounts for noise, and hopeless links drop
  // up front.
  channel::IncrementalFeasibility acc(engine, rule.quantity);
  std::vector<char> alive(n);
  std::vector<net::LinkId> survivors(n);
  for (net::LinkId j = 0; j < n; ++j) {
    alive[j] = !(acc.Sum(j) > rule.budget);
    survivors[j] = j;
  }

  // `survivors` holds ids in ascending order. Each round compacts it to
  // {j : alive[j]} and finds its smallest (length, id) in the same
  // branch-free pass. A dead link never comes back, so that is the next
  // live link in ascending (length, id) order; the strict '<' over
  // ascending ids sends a length tie to the lowest id.
  std::size_t live = n;
  net::Schedule picked;
  for (;;) {
    std::size_t kept = 0;
    net::LinkId i = 0;
    double shortest = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < live; ++k) {
      const net::LinkId j = survivors[k];
      const bool keep = alive[j] != 0;
      const bool better = keep & (lengths[j] < shortest);
      i = better ? j : i;
      shortest = better ? lengths[j] : shortest;
      survivors[kept] = j;
      kept += keep;
    }
    live = kept;
    if (live == 0) return picked;
    picked.push_back(i);
    alive[i] = 0;

    // Rule A (Algorithm 2, line 4): every live sender within c1·d_ii of
    // r_i drops. The paper uses a strict '<'; the inclusive boundary
    // differs only on a measure-zero set and is conservative. d_ii is
    // positive and finite, so the radius check is a check on c1.
    const double radius = rule.c1 * links.Length(i);
    FS_CHECK_MSG(radius >= 0.0, "negative query radius");
    const double r2 = radius * radius;
    const geom::Vec2 r_i = links.Receiver(i);
    for (std::size_t k = 0; k < live; ++k) {
      const net::LinkId j = survivors[k];
      alive[j] &= static_cast<char>(
          !(geom::SquaredDistance(senders[j], r_i) <= r2));
    }

    // Rule B (line 5): the pick's term onto every surviving receiver, and
    // those whose budget is now blown drop, in one pass.
    acc.AddAndPrune(i, alive, rule.budget);
  }
}

}  // namespace fadesched::sched
