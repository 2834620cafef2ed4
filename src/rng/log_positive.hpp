// The one in-house natural log behind every exponential draw.
//
// rng::Exponential draws −mean·ln(1 − U) with U a multiple of 2⁻⁵³ in
// [0, 1), so 1 − U is exact and ln(1 − U) equals log1p(−U). Computing it
// with our own log instead of libm makes the variates independent of the
// C library, and lets the batched SIMD tiers of the §II fading draw
// (channel/exponential_kernel.hpp) reproduce the scalar bits exactly.
//
// LogPositive is fdlibm's __ieee754_log restricted to positive normal
// inputs: the mantissa is folded into [√2/2, √2) with the 0x95f64 carry,
// f = x − 1 goes through either the |f| < 2⁻²⁰ Taylor form, the hfsq form
// or the plain s·(f − R) form, with s = f/(2 + f) a true divide and the
// Lg1–Lg7 atanh-series polynomial, and k·ln 2 is added back in two parts.
// fdlibm's k == 0 shortcuts are dropped: with k = 0 the general forms
// round to the same bits. It is within 1 ULP of glibc's log1p(−U) over
// the whole draw domain (pinned by rng/log_positive_test).
//
// Bit-identity contract: every operation is a correctly-rounded IEEE
// add/sub/mul/div in source order, never fused: the project is built
// with -ffp-contract=off (top-level CMakeLists.txt), so neither this
// inline copy nor the vector tiers get contracted into FMAs, whatever
// instruction set a build targets.
#pragma once

#include <bit>
#include <cstdint>

namespace fadesched::rng {

// fdlibm log(): atanh-series split polynomial over s = f/(2+f) with the
// mantissa folded into [√2/2, √2), plus the exact-sum split of ln 2.
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

// Integer constants of the fold and branch tests, on the high 20 mantissa
// bits hx of x: hx + kLogFoldCarry carries into bit 20 iff the mantissa is
// at least ~√2 (then x is halved and k bumped); hx ∈ {0xffffe, 0xfffff, 0}
// selects the |f| < 2⁻²⁰ form; hx ∈ [kLogHfsqLo, kLogHfsqHi] the hfsq form.
inline constexpr std::uint64_t kLogFoldCarry = 0x95f64;
inline constexpr std::uint64_t kLogHfsqLo = 0x6147a;
inline constexpr std::uint64_t kLogHfsqHi = 0x6b851;

/// ln(x) for a positive normal finite x, as fdlibm computes it.
inline double LogPositive(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t hi = bits >> 32;
  const std::uint64_t hx = hi & 0xfffff;
  const std::uint64_t fold = (hx + kLogFoldCarry) & 0x100000;
  const double dk = static_cast<double>((hi >> 20) + (fold >> 20)) - 1023.0;
  const double xn = std::bit_cast<double>(
      ((hx | (fold ^ 0x3ff00000)) << 32) | (bits & 0xffffffffu));
  const double f = xn - 1.0;
  if (((hx + 2) & 0xfffff) < 3) {  // |f| < 2⁻²⁰
    const double r = f * f * (0.5 - 0.33333333333333333 * f);
    return dk * kLn2Hi - ((r - dk * kLn2Lo) - f);
  }
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  if (hx >= kLogHfsqLo && hx <= kLogHfsqHi) {
    const double hfsq = 0.5 * f * f;
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  }
  return dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
}

}  // namespace fadesched::rng
