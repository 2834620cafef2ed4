// Link and LinkSet — the network substrate every algorithm operates on.
//
// A link is one sender→receiver pair with a data rate λ. LinkSet stores
// links in structure-of-arrays form: the schedulers and the simulator
// stream over positions and lengths, and SoA keeps those scans cache-
// friendly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace fadesched::net {

/// Index of a link within a LinkSet.
using LinkId = std::size_t;

/// One transmission request (sender, receiver, data rate).
///
/// tx_power = 0 means "use the channel-wide default P" — the paper's
/// uniform-power model. A positive value overrides it per link (the power
/// control extension; see power/assignment.hpp).
struct Link {
  geom::Vec2 sender;
  geom::Vec2 receiver;
  double rate = 1.0;
  double tx_power = 0.0;

  [[nodiscard]] double Length() const {
    return geom::Distance(sender, receiver);
  }
};

class LinkSet {
 public:
  LinkSet() = default;
  explicit LinkSet(std::span<const Link> links);

  /// Pre-sizes storage for `n` links (parsers that know the row count).
  void Reserve(std::size_t n);

  /// Appends a link; rejects zero-length links and non-positive rates,
  /// which the interference model cannot represent.
  LinkId Add(const Link& link);

  /// Add without the exception: false, and nothing appended, where Add
  /// would throw. For parsers that fall back to a checked path.
  bool TryAdd(const Link& link);

  [[nodiscard]] std::size_t Size() const { return senders_.size(); }
  [[nodiscard]] bool Empty() const { return senders_.empty(); }

  [[nodiscard]] geom::Vec2 Sender(LinkId i) const { return senders_[i]; }
  [[nodiscard]] geom::Vec2 Receiver(LinkId i) const { return receivers_[i]; }
  [[nodiscard]] double Rate(LinkId i) const { return rates_[i]; }
  /// Cached link length d_ii.
  [[nodiscard]] double Length(LinkId i) const { return lengths_[i]; }
  /// Per-link transmit power override; 0 = channel default.
  [[nodiscard]] double TxPower(LinkId i) const { return tx_powers_[i]; }
  /// Effective transmit power given the channel default.
  [[nodiscard]] double EffectiveTxPower(LinkId i, double default_power) const {
    return tx_powers_[i] > 0.0 ? tx_powers_[i] : default_power;
  }

  [[nodiscard]] Link At(LinkId i) const {
    return Link{senders_[i], receivers_[i], rates_[i], tx_powers_[i]};
  }

  [[nodiscard]] std::span<const geom::Vec2> Senders() const { return senders_; }
  [[nodiscard]] std::span<const geom::Vec2> Receivers() const { return receivers_; }
  [[nodiscard]] std::span<const double> Rates() const { return rates_; }
  [[nodiscard]] std::span<const double> Lengths() const { return lengths_; }
  [[nodiscard]] std::span<const double> TxPowers() const { return tx_powers_; }

  /// Sum of rates over a subset of links.
  [[nodiscard]] double TotalRate(std::span<const LinkId> subset) const;

  /// True if every link has the same rate (RLE's precondition).
  [[nodiscard]] bool HasUniformRates() const;

  /// True if no link overrides the channel-wide transmit power — the
  /// paper's uniform-power model.
  [[nodiscard]] bool HasUniformTxPower() const;

  /// max/min effective power ratio given the channel default (1 for the
  /// uniform-power model); the provable schedulers inflate their constants
  /// by this factor so their feasibility theorems survive power control.
  [[nodiscard]] double TxPowerRatio(double default_power) const;

  /// Bounding box of all endpoints; undefined for an empty set.
  [[nodiscard]] geom::Aabb BoundingBox() const;

  /// Length of the shortest / longest link; undefined for an empty set.
  [[nodiscard]] double MinLength() const;
  [[nodiscard]] double MaxLength() const;

  /// New LinkSet containing only `ids` (order preserved).
  [[nodiscard]] LinkSet Subset(std::span<const LinkId> ids) const;

 private:
  void Append(const Link& link, double length);

  std::vector<geom::Vec2> senders_;
  std::vector<geom::Vec2> receivers_;
  std::vector<double> rates_;
  std::vector<double> lengths_;
  std::vector<double> tx_powers_;
};

/// A schedule is the subset of link ids chosen to transmit in the slot.
using Schedule = std::vector<LinkId>;

}  // namespace fadesched::net
