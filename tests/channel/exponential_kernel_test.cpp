// The batched §II fading draw: every dispatch tier of
// simd::ExponentialInPlace must reproduce scalar rng::Exponential bit for
// bit, at every tail length and in every branch form of the log, and so
// must sim::DrawRealization at the tier the environment selects. CI
// reruns this binary under FADESCHED_SIMD_LEVEL=scalar, which covers the
// kAuto path forced scalar.
#include "channel/exponential_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "channel/simd_dispatch.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/fading_models.hpp"

namespace fadesched::channel {
namespace {

/// All dispatch tiers this machine can actually execute, plus kAuto.
std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> levels{SimdLevel::kAuto, SimdLevel::kScalar};
  if (DetectSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (DetectSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// Complements 1 − U that hit every branch of rng::LogPositive: exactly
/// 1, the smallest draw 2⁻⁵³, powers of two, the |f| < 2⁻²⁰ band on both
/// sides of 1, the hfsq band, and both sides of the √2 fold.
std::vector<double> BranchComplements() {
  std::vector<double> x = {1.0, 0x1.0p-53, 0.5, 0x1.0p-20, 1.0 - 0x1.0p-53,
                           1.0 - 0x1.0p-30, 0.5 + 0x1.0p-40, 0.75,
                           0x1.6147ap-1, 0x1.6b851p-1, 0x1.6a09cp-1,
                           0x1.6a09bp-1, 0x1.6a09e667f3bcdp-1, 0.7,
                           0x1.fffffp-1, 0x1.00001p-4, 0x1.00000fp-4, 0.3};
  return x;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ExponentialKernelTest, EveryTierMatchesScalarExponentialAtEveryTail) {
  // Lengths 0..17 cover an empty call, pure tails and one or two full
  // vectors with every remainder for both vector widths.
  for (const SimdLevel level : Levels()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      rng::Xoshiro256 kernel_gen(1000 + n);
      rng::Xoshiro256 scalar_gen(1000 + n);
      std::vector<double> mean(n);
      std::vector<double> io(n);
      for (std::size_t k = 0; k < n; ++k) {
        mean[k] = std::ldexp(0.5 + static_cast<double>(k), -static_cast<int>(3 * k));
        io[k] = 1.0 - rng::UniformUnit(kernel_gen);
      }
      simd::ExponentialInPlace(level, mean.data(), io.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(Bits(io[k]), Bits(rng::Exponential(scalar_gen, mean[k])))
            << SimdLevelName(level) << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ExponentialKernelTest, EveryTierMatchesScalarOnEveryBranchForm) {
  const std::vector<double> complements = BranchComplements();
  // Rotate the special values through every lane position.
  for (std::size_t shift = 0; shift < 8; ++shift) {
    std::vector<double> x(complements.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = complements[(k + shift) % complements.size()];
    }
    const std::vector<double> mean(x.size(), 1.75);
    for (const SimdLevel level : Levels()) {
      std::vector<double> io = x;
      simd::ExponentialInPlace(level, mean.data(), io.data(), io.size());
      for (std::size_t k = 0; k < x.size(); ++k) {
        EXPECT_EQ(Bits(io[k]), Bits(-1.75 * rng::LogPositive(x[k])))
            << SimdLevelName(level) << " x=" << x[k];
      }
    }
  }
}

TEST(ExponentialKernelTest, EveryTierMatchesScalarOnALongStream) {
  constexpr std::size_t kN = 1u << 18;
  rng::Xoshiro256 gen(77);
  std::vector<double> mean(kN);
  std::vector<double> x(kN);
  for (std::size_t k = 0; k < kN; ++k) {
    mean[k] = 1e-6 + rng::UniformUnit(gen) * 10.0;
    x[k] = 1.0 - rng::UniformUnit(gen);
  }
  std::vector<double> want = x;
  simd::ExponentialInPlace(SimdLevel::kScalar, mean.data(), want.data(), kN);
  for (const SimdLevel level : Levels()) {
    std::vector<double> io = x;
    simd::ExponentialInPlace(level, mean.data(), io.data(), kN);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < kN; ++k) mismatches += Bits(io[k]) != Bits(want[k]);
    EXPECT_EQ(mismatches, 0u) << SimdLevelName(level);
  }
}

// sim::DrawRealization always dispatches at kAuto, so this checks the
// tier the environment selects: the host's best by default, scalar under
// CI's FADESCHED_SIMD_LEVEL=scalar rerun, AVX2 under
// FADESCHED_SIMD_LEVEL=avx2.
TEST(ExponentialKernelTest, DrawRealizationMatchesScalarDrawsAtTheActiveTier) {
  ChannelParams params;
  params.gamma_th = 1.0;
  std::size_t successes = 0;
  std::size_t receivers = 0;
  for (std::size_t m = 1; m <= 23; ++m) {
    std::vector<double> mean(m * m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        mean[i * m + j] = i == j ? 2.0 : 0.3 / static_cast<double>(1 + i + j);
      }
    }
    rng::Xoshiro256 kernel_gen(500 + m);
    rng::Xoshiro256 scalar_gen(500 + m);
    std::vector<double> scratch;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<char> got;
      sim::DrawRealization(kernel_gen, mean, m, params, sim::FadingOptions{},
                           scratch, [&](std::size_t, bool ok) {
                             got.push_back(ok ? 1 : 0);
                           });
      std::vector<double> power(m * m);
      for (std::size_t k = 0; k < m * m; ++k) {
        power[k] = rng::Exponential(scalar_gen, mean[k]);
        // The kernel leaves the m² powers at the front of its scratch.
        ASSERT_EQ(Bits(scratch[k]), Bits(power[k]))
            << "m=" << m << " trial " << trial << " k=" << k;
      }
      ASSERT_EQ(got.size(), m);
      for (std::size_t j = 0; j < m; ++j) {
        double interference = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          if (i != j) interference += power[i * m + j];
        }
        const bool want =
            interference == 0.0 || power[j * m + j] >= interference;
        EXPECT_EQ(got[j] != 0, want) << "m=" << m << " trial " << trial;
        successes += want ? 1 : 0;
        ++receivers;
      }
    }
  }
  // Both outcomes occur, so the decode comparison has teeth.
  EXPECT_GT(successes, 0u);
  EXPECT_LT(successes, receivers);
}

}  // namespace
}  // namespace fadesched::channel
