#include "channel/deterministic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "channel/interference.hpp"
#include "mathx/summation.hpp"
#include "util/check.hpp"

namespace fadesched::channel {

DeterministicSinr::DeterministicSinr(const net::LinkSet& links,
                                     const ChannelParams& params)
    : links_(&links), params_(params) {
  params_.Validate();
}

double DeterministicSinr::Affectance(net::LinkId interferer,
                                     net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  const double d_ij =
      geom::Distance(links_->Sender(interferer), links_->Receiver(victim));
  CheckSenderOffReceiver(d_ij > 0.0);
  const double d_jj = links_->Length(victim);
  const double power_ratio =
      links_->EffectiveTxPower(interferer, params_.tx_power) /
      links_->EffectiveTxPower(victim, params_.tx_power);
  return params_.gamma_th * power_ratio *
         std::pow(d_jj / d_ij, params_.alpha);
}

double DeterministicSinr::NoiseAffectance(net::LinkId victim) const {
  if (params_.noise_power == 0.0) return 0.0;
  const double signal_mean =
      links_->EffectiveTxPower(victim, params_.tx_power) *
      std::pow(links_->Length(victim), -params_.alpha);
  return params_.gamma_th * params_.noise_power / signal_mean;
}

double DeterministicSinr::SumAffectance(std::span<const net::LinkId> schedule,
                                        net::LinkId victim) const {
  mathx::NeumaierSum sum;
  for (net::LinkId i : schedule) {
    if (i == victim) continue;
    sum.Add(Affectance(i, victim));
  }
  return sum.Total();
}

double DeterministicSinr::MeanSinr(std::span<const net::LinkId> schedule,
                                   net::LinkId victim) const {
  const double affectance =
      NoiseAffectance(victim) + SumAffectance(schedule, victim);
  if (affectance == 0.0) return std::numeric_limits<double>::infinity();
  // SINR = P·d_jj^{-α} / (N₀ + Σ P·d_ij^{-α}) = γ_th / (a_noise + Σ a_ij).
  return params_.gamma_th / affectance;
}

bool DeterministicSinr::LinkDecodes(std::span<const net::LinkId> schedule,
                                    net::LinkId victim) const {
  return NoiseAffectance(victim) + SumAffectance(schedule, victim) <=
         1.0 + 1e-12;
}

bool DeterministicSinr::ScheduleIsFeasible(
    std::span<const net::LinkId> schedule) const {
  return std::all_of(schedule.begin(), schedule.end(), [&](net::LinkId j) {
    return LinkDecodes(schedule, j);
  });
}

}  // namespace fadesched::channel
