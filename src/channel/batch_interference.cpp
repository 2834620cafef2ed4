#include "channel/batch_interference.hpp"

#include <cmath>
#include <optional>

#include "mathx/summation.hpp"

namespace fadesched::channel {

HalfPowerKernel::HalfPowerKernel(double alpha) : half_alpha_(alpha / 2.0) {
  // Exponent on d² in quarter units: d²^(q/4) = d^(q/2) = d^α ⇒ q = 2α.
  const double q_real = 2.0 * alpha;
  const double q_round = std::round(q_real);
  if (std::abs(q_real - q_round) < 1e-9 && q_round >= 1.0 && q_round <= 64.0) {
    const int q = static_cast<int>(q_round);
    whole_ = q / 4;
    use_sqrt_ = ((q >> 1) & 1) != 0;
    use_quarter_ = (q & 1) != 0;
  } else {
    generic_ = true;
  }
}

std::vector<double> MeanRxPowerTable(const net::LinkSet& links,
                                     const ChannelParams& params,
                                     std::span<const net::LinkId> ids) {
  const std::size_t m = ids.size();
  std::vector<char> seen(links.Size(), 0);
  for (const net::LinkId id : ids) {
    FS_CHECK_MSG(id < links.Size(), "schedule link id out of range");
    FS_CHECK_MSG(!seen[id], "schedule lists a link id twice");
    seen[id] = 1;
  }
  const HalfPowerKernel kernel(params.alpha);
  std::vector<double> mean(m * m);
  for (std::size_t a = 0; a < m; ++a) {
    const double power = links.EffectiveTxPower(ids[a], params.tx_power);
    const geom::Vec2 s = links.Sender(ids[a]);
    for (std::size_t b = 0; b < m; ++b) {
      const geom::Vec2 r = links.Receiver(ids[b]);
      const double dx = s.x - r.x;
      const double dy = s.y - r.y;
      const double d2 = dx * dx + dy * dy;
      FS_CHECK_MSG(d2 > 0.0, "sender coincides with a scheduled receiver");
      mean[a * m + b] = power / kernel.DistPowAlpha(d2);
    }
  }
  return mean;
}

InterferenceEngine::InterferenceEngine(const net::LinkSet& links,
                                       const ChannelParams& params,
                                       EngineOptions options)
    : links_(&links),
      options_(options),
      calc_(links, params),  // validates params
      det_(links, params),
      kernel_(params.alpha),
      n_(links.Size()) {
  const ChannelParams& p = calc_.Params();
  sender_x_.resize(n_);
  sender_y_.resize(n_);
  receiver_x_.resize(n_);
  receiver_y_.resize(n_);
  power_.resize(n_);
  victim_coeff_.resize(n_);
  noise_factor_.resize(n_);
  for (net::LinkId j = 0; j < n_; ++j) {
    const geom::Vec2 s = links.Sender(j);
    const geom::Vec2 r = links.Receiver(j);
    sender_x_[j] = s.x;
    sender_y_[j] = s.y;
    receiver_x_[j] = r.x;
    receiver_y_[j] = r.y;
    power_[j] = links.EffectiveTxPower(j, p.tx_power);
    victim_coeff_[j] =
        p.gamma_th * std::pow(links.Length(j), p.alpha) / power_[j];
    noise_factor_[j] = calc_.NoiseFactor(j);
  }
}

double InterferenceEngine::Factor(net::LinkId interferer,
                                  net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  if (options_.backend == FactorBackend::kCalculator) {
    return calc_.Factor(interferer, victim);
  }
  return std::log1p(FastAffectance(interferer, victim));
}

double InterferenceEngine::Affectance(net::LinkId interferer,
                                      net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  if (options_.backend == FactorBackend::kCalculator) {
    return det_.Affectance(interferer, victim);
  }
  return FastAffectance(interferer, victim);
}

double InterferenceEngine::SumFactor(std::span<const net::LinkId> schedule,
                                     net::LinkId victim) const {
  mathx::NeumaierSum sum;
  for (net::LinkId i : schedule) {
    if (i == victim) continue;
    sum.Add(Factor(i, victim));
  }
  return sum.Total();
}

IncrementalFeasibility::IncrementalFeasibility(const InterferenceEngine& engine,
                                               Quantity quantity)
    : engine_(&engine),
      quantity_(quantity),
      noise_(engine.noise_factor_),
      sum_(engine.Size(), 0.0),
      comp_(engine.Size(), 0.0),
      level_(ResolveSimdLevel(SimdLevel::kAuto)),
      lanes_(simd::LaneCount(level_)),
      lane_terms_(level_ != SimdLevel::kScalar &&
                  engine.Backend() == FactorBackend::kTables &&
                  engine.kernel_.IsSpecialized() &&
                  (quantity == Quantity::kAffectance ||
                   simd::Log1pLanesMatchLibm())) {}

double IncrementalFeasibility::Term(net::LinkId i, net::LinkId j) const {
  return quantity_ == Quantity::kFactor ? engine_->Factor(i, j)
                                        : engine_->Affectance(i, j);
}

void IncrementalFeasibility::AddTerm(net::LinkId j, double value) {
  const double t = sum_[j] + value;
  if (std::abs(sum_[j]) >= std::abs(value)) {
    comp_[j] += (sum_[j] - t) + value;
  } else {
    comp_[j] += (value - t) + sum_[j];
  }
  sum_[j] = t;
}

simd::TermSource IncrementalFeasibility::Source(net::LinkId interferer) const {
  const InterferenceEngine& e = *engine_;
  simd::TermSource source;
  source.rx = e.receiver_x_.data();
  source.ry = e.receiver_y_.data();
  source.coeff = e.victim_coeff_.data();
  source.sx = e.sender_x_[interferer];
  source.sy = e.sender_y_[interferer];
  source.power = e.power_[interferer];
  source.spec = {e.kernel_.WholeSteps(), e.kernel_.UsesSqrt(),
                 e.kernel_.UsesQuarter(), quantity_ == Quantity::kAffectance};
  return source;
}

void IncrementalFeasibility::AddAndPruneScalar(net::LinkId interferer,
                                               char* alive, double budget,
                                               std::size_t begin,
                                               std::size_t end) {
  for (net::LinkId j = begin; j < end; ++j) {
    if (j == interferer || !alive[j]) continue;
    AddTerm(j, Term(interferer, j));
    if (Sum(j) > budget) alive[j] = 0;
  }
}

void IncrementalFeasibility::AddAndPrune(net::LinkId interferer,
                                         std::span<char> alive,
                                         double budget) {
  const std::size_t n = sum_.size();
  FS_CHECK_MSG(alive.size() == n, "alive mask size does not match the engine");
  std::size_t j = 0;
  if (lane_terms_) {
    const simd::TermSource source = Source(interferer);
    const simd::NeumaierSums<double> sums{noise_.data(), sum_.data(),
                                          comp_.data()};
    for (;;) {
      j = simd::AccumulateLanes(level_, source, sums, alive.data(),
                                interferer, budget, j, n);
      if (j + lanes_ > n) break;
      AddAndPruneScalar(interferer, alive.data(), budget, j, j + lanes_);
      j += lanes_;
    }
  }
  AddAndPruneScalar(interferer, alive.data(), budget, j, n);
}

bool IncrementalFeasibility::AnyOverWith(net::LinkId extra,
                                         std::span<const net::LinkId> victims,
                                         double budget) const {
  const auto any_over = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const net::LinkId v = victims[k];
      if (Sum(v) + (v == extra ? 0.0 : Term(extra, v)) > budget) return true;
    }
    return false;
  };
  std::size_t k = 0;
  if (lane_terms_) {
    const simd::TermSource source = Source(extra);
    const simd::NeumaierSums<const double> sums{noise_.data(), sum_.data(),
                                                comp_.data()};
    for (;;) {
      bool over = false;
      k = simd::AnyOverLanes(level_, source, sums, victims.data(), extra,
                             budget, k, victims.size(), over);
      if (over) return true;
      if (k + lanes_ > victims.size()) break;
      if (any_over(k, k + lanes_)) return true;
      k += lanes_;
    }
  }
  return any_over(k, victims.size());
}

const InterferenceEngine& ObtainEngine(
    const net::LinkSet& links, const ChannelParams& params,
    const EngineOptions& options, std::optional<InterferenceEngine>& local) {
  const InterferenceEngine* shared = options.shared.get();
  if (shared != nullptr && &shared->Links() == &links &&
      shared->Params() == params &&
      shared->Backend() == options.backend) {
    return *shared;
  }
  // Drop the rejected shared engine before building locally, so the local
  // engine's stored options don't pin someone else's tables alive.
  EngineOptions fresh = options;
  fresh.shared.reset();
  local.emplace(links, params, std::move(fresh));
  return *local;
}

}  // namespace fadesched::channel
