// Generalized small-scale fading models for the simulator.
//
// The paper's analysis is exact for Rayleigh fading (exponential power
// gains). Real channels deviate — Nakagami-m captures more/less severe
// fading (m = 1 is Rayleigh; m → ∞ approaches the deterministic model),
// and log-normal shadowing adds slow large-scale variation. The simulator
// supports all three so the robustness bench can measure how schedules
// *calibrated for Rayleigh* behave when the channel is not Rayleigh.
// All models are normalized to E[power] = mean, so only the distribution
// shape changes.
//
// DrawRealization is the one §II realization-and-decode kernel: the
// Monte-Carlo simulator, the feedback retry loop and the slotted dynamics
// simulator all call it, each with its own stream keying. Header-only so
// fs_sched can use it without linking fs_sim. Its Rayleigh path keeps the
// per-trial stream serial — m² complements 1 − U in row-major order — and
// vectorizes only the log, through one batched
// channel::simd::ExponentialInPlace call whose SIMD tiers are
// bit-identical to m² scalar rng::Exponential draws. Nakagami and
// shadowed fading keep the per-draw DrawFadedPower loop.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "channel/exponential_kernel.hpp"
#include "channel/params.hpp"
#include "channel/simd_dispatch.hpp"
#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace fadesched::sim {

enum class FadingModel {
  kRayleigh,          ///< exponential power (the paper's model)
  kNakagami,          ///< Gamma(m, mean/m) power; m = 1 reduces to Rayleigh
  kShadowedRayleigh,  ///< Rayleigh × normalized log-normal shadowing
};

struct FadingOptions {
  FadingModel model = FadingModel::kRayleigh;
  /// Nakagami shape m > 0 (only for kNakagami). m < 1 is more severe than
  /// Rayleigh, m > 1 milder.
  double nakagami_m = 1.0;
  /// Shadowing standard deviation in dB (only for kShadowedRayleigh).
  double shadowing_sigma_db = 6.0;

  void Validate() const {
    FS_CHECK_MSG(nakagami_m > 0.0, "Nakagami m must be positive");
    FS_CHECK_MSG(shadowing_sigma_db >= 0.0, "shadowing sigma must be >= 0");
  }
};

/// One instantaneous power draw with E[power] = mean under the model.
template <typename Gen>
double DrawFadedPower(Gen& gen, double mean, const FadingOptions& options) {
  switch (options.model) {
    case FadingModel::kRayleigh:
      return rng::Exponential(gen, mean);
    case FadingModel::kNakagami:
      return rng::GammaSample(gen, options.nakagami_m,
                              mean / options.nakagami_m);
    case FadingModel::kShadowedRayleigh: {
      // Log-normal factor normalized to unit mean: the underlying normal
      // has σ_ln = σ_dB·ln(10)/10 and μ = −σ_ln²/2.
      const double sigma_ln =
          options.shadowing_sigma_db * 0.23025850929940457;
      const double shadow = std::exp(sigma_ln * rng::StandardNormal(gen) -
                                     0.5 * sigma_ln * sigma_ln);
      return rng::Exponential(gen, mean * shadow);
    }
  }
  FS_CHECK_MSG(false, "unknown fading model");
  return 0.0;
}

/// One channel realization of m co-transmitting links (paper §II). Draws
/// Z_ij = DrawFadedPower(gen, mean[i·m + j]) for all m² pairs in row-major
/// order (i = interferer, j = victim, both positions in the caller's
/// schedule; `mean` as built by channel::MeanRxPowerTable), then calls
/// `on_decode(j, ok)` for j = 0..m−1 with
///   ok ⇔ Z_jj ≥ γ_th·(N₀ + Σ_{i≠j} Z_ij).
/// With the paper's N₀ = 0 a receiver with no interferer always decodes.
/// Consumes exactly m² draws from `gen`; `power` is scratch (resized to
/// m² + m: the powers, then the per-victim interference sums).
///
/// Rayleigh draws all m² complements 1 − U first and turns them into
/// powers with one batched call; the values are those of m² scalar
/// rng::Exponential calls at every dispatch tier. Interference is summed
/// row by row (contiguous), but each victim j still adds i = 0..m−1 in
/// order, so the sums are bitwise those of a column walk.
template <typename Gen, typename OnDecode>
void DrawRealization(Gen& gen, std::span<const double> mean, std::size_t m,
                     const channel::ChannelParams& params,
                     const FadingOptions& options, std::vector<double>& power,
                     OnDecode&& on_decode) {
  FS_DCHECK(mean.size() == m * m);
  const std::size_t n = m * m;
  power.resize(n + m);
  double* const z = power.data();
  if (options.model == FadingModel::kRayleigh) {
    for (std::size_t k = 0; k < n; ++k) z[k] = 1.0 - rng::UniformUnit(gen);
    channel::simd::ExponentialInPlace(channel::SimdLevel::kAuto, mean.data(),
                                      z, n);
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      z[k] = DrawFadedPower(gen, mean[k], options);
    }
  }
  double* const interference = z + n;
  for (std::size_t j = 0; j < m; ++j) interference[j] = params.noise_power;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = z + i * m;
    for (std::size_t j = 0; j < i; ++j) interference[j] += row[j];
    for (std::size_t j = i + 1; j < m; ++j) interference[j] += row[j];
  }
  for (std::size_t j = 0; j < m; ++j) {
    on_decode(j, interference[j] == 0.0 ||
                     z[j * m + j] >= params.gamma_th * interference[j]);
  }
}

/// Model name for table output.
inline const char* FadingModelName(FadingModel model) {
  switch (model) {
    case FadingModel::kRayleigh: return "rayleigh";
    case FadingModel::kNakagami: return "nakagami";
    case FadingModel::kShadowedRayleigh: return "shadowed";
  }
  return "?";
}

}  // namespace fadesched::sim
