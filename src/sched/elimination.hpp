// The ascending-length elimination scan behind RLE (Algorithm 2) and
// ApproxDiversity (Goussevskaia et al.): the two schedulers differ only in
// the quantity rule B accumulates, the clear-out radius factor c1 of rule A
// and rule B's budget.
#pragma once

#include "channel/batch_interference.hpp"
#include "net/link_set.hpp"

namespace fadesched::sched {

struct EliminationRule {
  /// What rule B sums per receiver: the Rayleigh factor f_ij (RLE) or the
  /// deterministic affectance a_ij (ApproxDiversity).
  channel::IncrementalFeasibility::Quantity quantity;
  double c1 = 0.0;      ///< rule A: sender clear-out radius, × d_ii
  double budget = 0.0;  ///< rule B: per-receiver budget on the picked set
};

/// Visits links by ascending length (ties by id). Each live link is picked,
/// then rule A eliminates every link whose sender lies within c1·d_ii of
/// the picked receiver r_i, and rule B every live link whose receiver's
/// noise plus accumulated quantity from the picked set exceeds the budget.
/// Links whose noise alone exceeds the budget are dropped up front. Returns
/// the picks in pick order.
net::Schedule EliminationScan(const net::LinkSet& links,
                              const channel::InterferenceEngine& engine,
                              const EliminationRule& rule);

}  // namespace fadesched::sched
