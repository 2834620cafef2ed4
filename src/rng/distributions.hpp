// Deterministic distribution kernels on top of any 64-bit generator.
//
// All transforms use inverse-CDF sampling so that a fixed draw sequence
// yields identical variates on every platform (std:: distributions are
// implementation-defined).
#pragma once

#include <cmath>
#include <cstdint>

#include "rng/log_positive.hpp"
#include "util/check.hpp"

namespace fadesched::rng {

/// Uniform double in [0, 1): top 53 bits of a 64-bit draw.
template <typename Gen>
double UniformUnit(Gen& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
template <typename Gen>
double UniformRange(Gen& gen, double lo, double hi) {
  FS_DCHECK(lo <= hi);
  return lo + (hi - lo) * UniformUnit(gen);
}

/// Unbiased uniform integer in [0, bound) via modulo rejection.
template <typename Gen>
std::uint64_t UniformIndex(Gen& gen, std::uint64_t bound) {
  FS_DCHECK(bound > 0);
  // Reject draws below 2^64 mod bound so every residue is equally likely.
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t draw = gen();
    if (draw >= threshold) return draw % bound;
  }
}

/// Exponential with the given mean (inverse-CDF; avoids log(0)).
template <typename Gen>
double Exponential(Gen& gen, double mean) {
  FS_DCHECK(mean > 0);
  // 1 - U is exact and in [2⁻⁵³, 1], so the log argument never hits zero
  // and ln(1 - U) = log1p(-U). The batched fading draw
  // (channel::simd::ExponentialInPlace) reproduces these bits.
  return -mean * LogPositive(1.0 - UniformUnit(gen));
}

/// Rayleigh *amplitude* with scale sigma; its square is Exponential(2σ²).
/// The fading channel uses powers (exponential), but the amplitude form is
/// exposed for signal-level traces and tests.
template <typename Gen>
double RayleighAmplitude(Gen& gen, double sigma) {
  FS_DCHECK(sigma > 0);
  return sigma * std::sqrt(-2.0 * LogPositive(1.0 - UniformUnit(gen)));
}

/// Standard normal via Box–Muller on two independent uniforms.
template <typename Gen>
double StandardNormal(Gen& gen) {
  const double u1 = 1.0 - UniformUnit(gen);  // (0, 1]
  const double u2 = UniformUnit(gen);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// Gamma(shape k, scale θ) via Marsaglia–Tsang squeeze (with the k < 1
/// boost). Mean = k·θ. Used by the Nakagami-m fading model, whose power
/// gain is Gamma(m, mean/m).
template <typename Gen>
double GammaSample(Gen& gen, double shape, double scale) {
  FS_DCHECK(shape > 0 && scale > 0);
  if (shape < 1.0) {
    // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
    const double boosted = GammaSample(gen, shape + 1.0, 1.0);
    const double u = 1.0 - UniformUnit(gen);  // (0, 1]
    return scale * boosted * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = StandardNormal(gen);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - UniformUnit(gen);  // (0, 1]
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return scale * d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

}  // namespace fadesched::rng
