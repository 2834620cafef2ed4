// Interference factors under the Rayleigh-fading model (Formula (17)):
//
//   f_ij = ln(1 + γ_th · (d_jj / d_ij)^α)   for i ≠ j,   f_jj = 0,
//
// where d_ij is the distance from sender s_i to receiver r_j and d_jj the
// victim's own link length. Corollary 3.1 reduces the probabilistic
// success test to Σ_{i∈P\j} f_ij ≤ γ_ε.
#pragma once

#include <span>
#include <vector>

#include "channel/params.hpp"
#include "net/link_set.hpp"
#include "util/check.hpp"

namespace fadesched::channel {

/// The one check every backend raises when an interfering sender sits on
/// the victim's receiver, so a served reply's error text does not depend
/// on which backend evaluated the pair.
inline void CheckSenderOffReceiver(bool sender_off_receiver) {
  FS_CHECK_MSG(sender_off_receiver,
               "interfering sender coincides with victim receiver");
}

/// Computes factors on demand from link geometry. Cheap to copy; holds a
/// reference to the LinkSet, which must outlive it.
class InterferenceCalculator {
 public:
  InterferenceCalculator(const net::LinkSet& links, const ChannelParams& params);

  [[nodiscard]] const net::LinkSet& Links() const { return *links_; }
  [[nodiscard]] const ChannelParams& Params() const { return params_; }

  /// f_ij — interference factor of link i's sender on link j's receiver.
  [[nodiscard]] double Factor(net::LinkId interferer, net::LinkId victim) const;

  /// Interference factor of an arbitrary sender position on link `victim`
  /// (used by the Knapsack reduction and tests).
  [[nodiscard]] double FactorFromPoint(geom::Vec2 sender_pos,
                                       net::LinkId victim) const;

  /// Σ_{i∈schedule, i≠victim} f_i,victim with compensated summation.
  [[nodiscard]] double SumFactor(std::span<const net::LinkId> schedule,
                                 net::LinkId victim) const;

  /// Noise factor γ_th·N₀/(P·d_jj^{-α}) — the fixed part of the victim's
  /// γ_ε budget consumed by ambient noise (0 when noise_power is 0, the
  /// paper's setting). A link with NoiseFactor > γ_ε can never be informed,
  /// even transmitting alone.
  [[nodiscard]] double NoiseFactor(net::LinkId victim) const;

 private:
  const net::LinkSet* links_;
  ChannelParams params_;
};

/// Dense N×N factor matrix (row = victim j, col = interferer i). Memory is
/// O(N²); it backs the exact solvers (sched/exact), which query every pair
/// of a small instance many times.
class InterferenceMatrix {
 public:
  /// Serial build, bit-identical to InterferenceCalculator::Factor.
  InterferenceMatrix(const net::LinkSet& links, const ChannelParams& params);

  [[nodiscard]] std::size_t Size() const { return n_; }
  [[nodiscard]] double Factor(net::LinkId interferer, net::LinkId victim) const {
    return data_[victim * n_ + interferer];
  }
  [[nodiscard]] double SumFactor(std::span<const net::LinkId> schedule,
                                 net::LinkId victim) const;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace fadesched::channel
