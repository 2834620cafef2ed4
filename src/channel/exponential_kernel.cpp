// The project is built with -ffp-contract=off (top-level CMakeLists.txt):
// inside the target(...) functions below the compiler could otherwise
// fuse the separate multiplies and adds into FMAs, and the tiers would
// stop matching the scalar rng::LogPositive.
#include "channel/exponential_kernel.hpp"

#include <cstdint>
#include <cstring>

#include "rng/log_positive.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FADESCHED_SIMD_X86 1
#define FS_TARGET_AVX2 __attribute__((target("avx2")))
#define FS_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))
#endif

namespace fadesched::channel::simd {
namespace {

using rng::kLg1;
using rng::kLg2;
using rng::kLg3;
using rng::kLg4;
using rng::kLg5;
using rng::kLg6;
using rng::kLg7;
using rng::kLn2Hi;
using rng::kLn2Lo;
using rng::kLogFoldCarry;
using rng::kLogHfsqHi;
using rng::kLogHfsqLo;

constexpr double kThird = 0.33333333333333333;
constexpr double kTwo52 = 4503599627370496.0;  // 2^52
constexpr long long kTwo52Bits = 0x4330000000000000LL;

void ScalarTail(const double* mean, double* io, std::size_t begin,
                std::size_t n) {
  for (std::size_t k = begin; k < n; ++k) {
    io[k] = -mean[k] * rng::LogPositive(io[k]);
  }
}

#ifdef FADESCHED_SIMD_X86

// ---------------------------------------------------------------------------
// Vector tiers — rng::LogPositive over GCC vector types, written once and
// instantiated four lanes wide for AVX2 and eight for AVX-512. Every
// branch form is evaluated and selected per lane; each lane's selected
// form is the same sequence of correctly-rounded operations the scalar
// code runs. The body is always inlined into the target(...) functions,
// so the vector operations are lowered with their instruction set.
// ---------------------------------------------------------------------------

typedef double Doubles4 __attribute__((vector_size(32)));
typedef std::int64_t Ints4 __attribute__((vector_size(32)));
typedef double Doubles8 __attribute__((vector_size(64)));
typedef std::int64_t Ints8 __attribute__((vector_size(64)));

// The vectors never leave this one function (no by-value parameter or
// return, hence __builtin_bit_cast over std::bit_cast), so no call
// crosses the psABI boundary of the wider registers.
template <typename D, typename I>
[[gnu::always_inline]] inline void ExponentialLanes(const double* mean,
                                                    double* io, std::size_t n) {
  constexpr std::size_t kLanes = sizeof(D) / sizeof(double);
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    D m;
    D x;
    std::memcpy(&m, mean + k, sizeof(D));
    std::memcpy(&x, io + k, sizeof(D));
    const I bits = __builtin_bit_cast(I, x);
    const I hi = bits >> 32;  // x > 0, so the shift brings in zeros
    const I hx = hi & 0xfffff;
    const I fold = (hx + kLogFoldCarry) & 0x100000;
    // Biased exponent plus the fold bit: a small non-negative integer,
    // converted exactly through the 2^52 trick.
    const I kbiased = (hi >> 20) + (fold >> 20);
    const D dk = (__builtin_bit_cast(D, kbiased | kTwo52Bits) - kTwo52) - 1023.0;
    const I xn = ((hx | (fold ^ 0x3ff00000)) << 32) | (bits & 0xffffffffLL);
    const D f = __builtin_bit_cast(D, xn) - 1.0;

    const D s = f / (2.0 + f);
    const D z = s * s;
    const D w = z * z;
    const D t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const D t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const D r = t2 + t1;
    const D dk_hi = dk * kLn2Hi;
    const D dk_lo = dk * kLn2Lo;
    const D hfsq = 0.5 * f * f;
    const D plain = dk_hi - ((s * (f - r) - dk_lo) - f);
    const D banded = dk_hi - ((hfsq - (s * (hfsq + r) + dk_lo)) - f);
    // |f| < 2⁻²⁰: the Taylor form.
    const D near_one = dk_hi - ((f * f * (0.5 - kThird * f) - dk_lo) - f);
    // Each branch test is one comparison (hx < 2²⁰, so the masked
    // difference is a range test): GCC lowers a combination of two
    // AVX-512 compare masks lane by lane.
    D log = ((hx - kLogHfsqLo) & 0x1fffff) <= kLogHfsqHi - kLogHfsqLo ? banded
                                                                      : plain;
    log = ((hx + 2) & 0xfffff) < 3 ? near_one : log;
    const D y = -m * log;
    std::memcpy(io + k, &y, sizeof(D));
  }
  ScalarTail(mean, io, k, n);
}

FS_TARGET_AVX2 void Avx2Exponential(const double* mean, double* io,
                                    std::size_t n) {
  ExponentialLanes<Doubles4, Ints4>(mean, io, n);
}

FS_TARGET_AVX512 void Avx512Exponential(const double* mean, double* io,
                                        std::size_t n) {
  ExponentialLanes<Doubles8, Ints8>(mean, io, n);
}

#endif  // FADESCHED_SIMD_X86

}  // namespace

void ExponentialInPlace(SimdLevel level, const double* mean, double* io,
                        std::size_t n) {
  switch (ResolveSimdLevel(level)) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return Avx512Exponential(mean, io, n);
    case SimdLevel::kAvx2:
      return Avx2Exponential(mean, io, n);
#endif
    default:
      return ScalarTail(mean, io, 0, n);
  }
}

}  // namespace fadesched::channel::simd
