#include "net/link_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace fadesched::net {

LinkSet::LinkSet(std::span<const Link> links) {
  Reserve(links.size());
  for (const Link& link : links) Add(link);
}

void LinkSet::Reserve(std::size_t n) {
  senders_.reserve(n);
  receivers_.reserve(n);
  rates_.reserve(n);
  lengths_.reserve(n);
  tx_powers_.reserve(n);
}

LinkId LinkSet::Add(const Link& link) {
  const double length = link.Length();
  FS_CHECK_MSG(length > 0.0, "zero-length link: sender == receiver");
  FS_CHECK_MSG(std::isfinite(length), "non-finite link endpoint");
  FS_CHECK_MSG(link.rate > 0.0, "link rate must be positive");
  FS_CHECK_MSG(link.tx_power >= 0.0, "negative per-link tx power");
  Append(link, length);
  return senders_.size() - 1;
}

bool LinkSet::TryAdd(const Link& link) {
  // Add's four checks, in its order, without building a message.
  const double length = link.Length();
  if (!(length > 0.0) || !std::isfinite(length) || !(link.rate > 0.0) ||
      !(link.tx_power >= 0.0)) {
    return false;
  }
  Append(link, length);
  return true;
}

void LinkSet::Append(const Link& link, double length) {
  senders_.push_back(link.sender);
  receivers_.push_back(link.receiver);
  rates_.push_back(link.rate);
  lengths_.push_back(length);
  tx_powers_.push_back(link.tx_power);
}

double LinkSet::TotalRate(std::span<const LinkId> subset) const {
  double sum = 0.0;
  for (LinkId id : subset) {
    FS_CHECK(id < Size());
    sum += rates_[id];
  }
  return sum;
}

bool LinkSet::HasUniformRates() const {
  if (rates_.empty()) return true;
  return std::all_of(rates_.begin(), rates_.end(),
                     [first = rates_.front()](double r) { return r == first; });
}

bool LinkSet::HasUniformTxPower() const {
  return std::all_of(tx_powers_.begin(), tx_powers_.end(),
                     [](double p) { return p == 0.0; });
}

double LinkSet::TxPowerRatio(double default_power) const {
  FS_CHECK_MSG(default_power > 0.0, "default power must be positive");
  if (Empty()) return 1.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (LinkId i = 0; i < Size(); ++i) {
    const double p = EffectiveTxPower(i, default_power);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi / lo;
}

geom::Aabb LinkSet::BoundingBox() const {
  FS_CHECK_MSG(!Empty(), "bounding box of empty link set");
  geom::Aabb box{senders_[0], senders_[0]};
  for (const auto& p : senders_) box.Extend(p);
  for (const auto& p : receivers_) box.Extend(p);
  return box;
}

double LinkSet::MinLength() const {
  FS_CHECK_MSG(!Empty(), "min length of empty link set");
  return *std::min_element(lengths_.begin(), lengths_.end());
}

double LinkSet::MaxLength() const {
  FS_CHECK_MSG(!Empty(), "max length of empty link set");
  return *std::max_element(lengths_.begin(), lengths_.end());
}

LinkSet LinkSet::Subset(std::span<const LinkId> ids) const {
  LinkSet out;
  for (LinkId id : ids) {
    FS_CHECK(id < Size());
    out.Add(At(id));
  }
  return out;
}

}  // namespace fadesched::net
