#include "channel/interference.hpp"

#include <cmath>

#include "mathx/summation.hpp"
#include "util/check.hpp"

namespace fadesched::channel {

InterferenceCalculator::InterferenceCalculator(const net::LinkSet& links,
                                               const ChannelParams& params)
    : links_(&links), params_(params) {
  params_.Validate();
}

double InterferenceCalculator::Factor(net::LinkId interferer,
                                      net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  const double d_ij =
      geom::Distance(links_->Sender(interferer), links_->Receiver(victim));
  CheckSenderOffReceiver(d_ij > 0.0);
  const double d_jj = links_->Length(victim);
  // Heterogeneous transmit powers scale the interference-to-signal mean
  // ratio by P_i/P_j (both default to the channel-wide P).
  const double power_ratio =
      links_->EffectiveTxPower(interferer, params_.tx_power) /
      links_->EffectiveTxPower(victim, params_.tx_power);
  return std::log1p(params_.gamma_th * power_ratio *
                    std::pow(d_jj / d_ij, params_.alpha));
}

double InterferenceCalculator::FactorFromPoint(geom::Vec2 sender_pos,
                                               net::LinkId victim) const {
  // The hypothetical sender transmits at the channel default P; used by
  // the Knapsack reduction, which lives in the uniform-power model.
  const double d_ij = geom::Distance(sender_pos, links_->Receiver(victim));
  CheckSenderOffReceiver(d_ij > 0.0);
  const double d_jj = links_->Length(victim);
  const double power_ratio =
      params_.tx_power / links_->EffectiveTxPower(victim, params_.tx_power);
  // ln(1 + γ_th (d_jj/d_ij)^α) via log1p for far interferers where the
  // argument underflows toward zero.
  return std::log1p(params_.gamma_th * power_ratio *
                    std::pow(d_jj / d_ij, params_.alpha));
}

double InterferenceCalculator::NoiseFactor(net::LinkId victim) const {
  if (params_.noise_power == 0.0) return 0.0;
  const double signal_mean =
      links_->EffectiveTxPower(victim, params_.tx_power) *
      std::pow(links_->Length(victim), -params_.alpha);
  return params_.gamma_th * params_.noise_power / signal_mean;
}

double InterferenceCalculator::SumFactor(std::span<const net::LinkId> schedule,
                                         net::LinkId victim) const {
  mathx::NeumaierSum sum;
  for (net::LinkId i : schedule) {
    if (i == victim) continue;
    sum.Add(Factor(i, victim));
  }
  return sum.Total();
}

InterferenceMatrix::InterferenceMatrix(const net::LinkSet& links,
                                       const ChannelParams& params)
    : n_(links.Size()), data_(n_ * n_, 0.0) {
  const InterferenceCalculator calc(links, params);  // validates params
  const ChannelParams& p = calc.Params();
  // Per-victim quantities (receiver position, own length, own power) are
  // hoisted out of the inner loop; the per-entry expression is otherwise
  // exactly InterferenceCalculator::Factor, so entries stay bit-identical
  // to the on-demand path.
  for (net::LinkId j = 0; j < n_; ++j) {
    const geom::Vec2 receiver = links.Receiver(j);
    const double d_jj = links.Length(j);
    const double victim_power = links.EffectiveTxPower(j, p.tx_power);
    double* row = &data_[j * n_];
    for (net::LinkId i = 0; i < n_; ++i) {
      if (i == j) continue;
      const double d_ij = geom::Distance(links.Sender(i), receiver);
      CheckSenderOffReceiver(d_ij > 0.0);
      const double power_ratio =
          links.EffectiveTxPower(i, p.tx_power) / victim_power;
      row[i] = std::log1p(p.gamma_th * power_ratio *
                          std::pow(d_jj / d_ij, p.alpha));
    }
  }
}

double InterferenceMatrix::SumFactor(std::span<const net::LinkId> schedule,
                                     net::LinkId victim) const {
  mathx::NeumaierSum sum;
  for (net::LinkId i : schedule) {
    if (i == victim) continue;
    FS_DCHECK(i < n_);
    sum.Add(Factor(i, victim));
  }
  return sum.Total();
}

}  // namespace fadesched::channel
