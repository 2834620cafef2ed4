#include "rng/log_positive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "mathx/ulp.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace fadesched::rng {
namespace {

constexpr double kStep = 0x1.0p-53;  // the grid UniformUnit draws on

// rng::Exponential evaluates ln(1 − U) where it used to call log1p(−U);
// U is a multiple of 2⁻⁵³, so 1 − U is exact and the two agree to 1 ULP.
std::uint64_t UlpVsLog1p(double u) {
  return mathx::UlpDistance(LogPositive(1.0 - u), std::log1p(-u));
}

TEST(LogPositiveTest, WithinOneUlpOfLog1pOnADenseUniformGrid) {
  // 2²⁰ evenly spaced U on the draw grid, plus 2²⁰ draws from the stream.
  std::uint64_t worst = 0;
  constexpr std::uint64_t kPoints = 1u << 20;
  for (std::uint64_t k = 0; k < kPoints; ++k) {
    const double u = static_cast<double>(k * ((1ULL << 53) / kPoints)) * kStep;
    worst = std::max(worst, UlpVsLog1p(u));
  }
  Xoshiro256 gen(1706);
  for (std::uint64_t k = 0; k < kPoints; ++k) {
    worst = std::max(worst, UlpVsLog1p(UniformUnit(gen)));
  }
  EXPECT_LE(worst, 1u);
}

TEST(LogPositiveTest, WithinOneUlpOfLog1pInEveryBinadeOfTheComplement) {
  // A uniform grid leaves the small-(1 − U) binades nearly empty, so
  // sample each binade [2^-(e+1), 2^-e) of 1 − U densely on its own.
  Xoshiro256 gen(5305);
  for (int e = 0; e < 53; ++e) {
    const double lo = std::ldexp(1.0, -(e + 1));
    const std::uint64_t slots = 1ULL << (52 - e);  // grid points per binade
    std::uint64_t worst = 0;
    for (int k = 0; k < 4096; ++k) {
      const double x = lo + static_cast<double>(gen() % slots) * kStep;
      worst = std::max(worst, UlpVsLog1p(1.0 - x));
    }
    EXPECT_LE(worst, 1u) << "binade 2^-" << e + 1;
  }
}

TEST(LogPositiveTest, EdgesAndBinadeBoundariesWithinOneUlp) {
  // U = 0 (1 − U = 1, ln = 0; log1p(−0) is −0, which counts as equal)
  // and U = 1 − 2⁻⁵³ (1 − U = 2⁻⁵³, the smallest argument a draw makes).
  EXPECT_EQ(LogPositive(1.0), 0.0);
  EXPECT_LE(UlpVsLog1p(0.0), 0u);
  EXPECT_LE(UlpVsLog1p(1.0 - kStep), 1u);
  EXPECT_EQ(LogPositive(kStep), -53.0 * std::log(2.0));
  // Every binade boundary 1 − U = 2^-e, and its grid neighbours.
  for (int e = 0; e <= 53; ++e) {
    const double x = std::ldexp(1.0, -e);
    for (const double c : {x - kStep, x, x + kStep}) {
      if (c < kStep || c > 1.0) continue;
      EXPECT_LE(UlpVsLog1p(1.0 - c), 1u) << "1 - U = " << c;
    }
  }
}

TEST(LogPositiveTest, WithinOneUlpOfLogAcrossPositiveNormals) {
  // The branch structure (fold, |f| < 2⁻²⁰ form, hfsq band) is the same in
  // every binade; check the full normal range against libm's log too.
  Xoshiro256 gen(31);
  std::uint64_t worst = 0;
  for (int k = 0; k < 200000; ++k) {
    const std::uint64_t exponent = 1 + gen() % 2046;
    const double x =
        std::bit_cast<double>((exponent << 52) | (gen() >> 12));
    worst = std::max(worst, mathx::UlpDistance(LogPositive(x), std::log(x)));
  }
  EXPECT_LE(worst, 1u);
}

TEST(LogPositiveTest, ExponentialUsesItOnTheComplement) {
  Xoshiro256 a(9);
  Xoshiro256 b(9);
  for (int k = 0; k < 1000; ++k) {
    const double got = Exponential(a, 2.5);
    EXPECT_EQ(got, -2.5 * LogPositive(1.0 - UniformUnit(b)));
  }
}

}  // namespace
}  // namespace fadesched::rng
