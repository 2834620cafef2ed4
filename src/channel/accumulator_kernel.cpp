// The project is built with -ffp-contract=off (top-level CMakeLists.txt),
// so the only fused operations in the lanes are the explicit
// FusedMultiplyAdd calls, placed where glibc's FMA build of log1p fuses.
#include "channel/accumulator_kernel.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "rng/log_positive.hpp"
#include "rng/splitmix64.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FADESCHED_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fadesched::channel::simd {
namespace {

// High words of glibc log1p's branch thresholds on x ≥ 0.
constexpr std::int64_t kHxTiny = 0x3c900000;   // x < 2⁻⁵⁴: log1p(x) = x
constexpr std::int64_t kHxSmall = 0x3e200000;  // x < 2⁻²⁹: x − x²/2
constexpr std::int64_t kHxUnit = 0x3FDA827A;   // x < ~√2 − 1: f = x, k = 0
constexpr std::int64_t kHxHuge = 0x43400000;   // x ≥ 2⁵³: left to std::log1p
// 1 + x's top mantissa bits at or above √2's: u is halved and k bumped.
constexpr std::int64_t kHuSqrt2 = 0x6a09e;

#ifdef FADESCHED_SIMD_X86

// ---------------------------------------------------------------------------
// The tiers: accumulator_lanes.inc compiled once per instruction set, four
// lanes wide for AVX2+FMA and eight for AVX-512. The fused multiply-adds
// and square roots are the only intrinsics; everything else is GCC vector
// arithmetic, and -ffp-contract=off keeps it unfused.
// ---------------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {

typedef double D __attribute__((vector_size(32)));
typedef std::int64_t I __attribute__((vector_size(32)));
typedef std::uint64_t U __attribute__((vector_size(32)));
typedef std::uint32_t Packed;  // one alive byte per lane
constexpr std::size_t kLanes = 4;

// acc = a·b + acc with a single rounding.
[[gnu::always_inline]] inline void FusedMultiplyAdd(const D& a, const D& b,
                                                    D& acc) {
  acc = _mm256_fmadd_pd(a, b, acc);
}

[[gnu::always_inline]] inline void Sqrt(const D& x, D& out) {
  out = _mm256_sqrt_pd(x);
}

#include "channel/accumulator_lanes.inc"

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl")
namespace avx512 {

typedef double D __attribute__((vector_size(64)));
typedef std::int64_t I __attribute__((vector_size(64)));
typedef std::uint64_t U __attribute__((vector_size(64)));
typedef std::uint64_t Packed;
constexpr std::size_t kLanes = 8;

[[gnu::always_inline]] inline void FusedMultiplyAdd(const D& a, const D& b,
                                                    D& acc) {
  acc = _mm512_fmadd_pd(a, b, acc);
}

// The masked form with every lane selected is plain vsqrtpd; the unmasked
// intrinsic merges into an undefined register, which -Wmaybe-uninitialized
// reports once inlined here.
[[gnu::always_inline]] inline void Sqrt(const D& x, D& out) {
  out = _mm512_mask_sqrt_pd(x, static_cast<__mmask8>(0xff), x);
}

#include "channel/accumulator_lanes.inc"

}  // namespace avx512
#pragma GCC pop_options

// Every branch threshold of the port with ±2 ulp neighbours.
std::vector<double> ThresholdInputs() {
  std::vector<double> probe;
  const auto around = [&probe](std::uint64_t bits) {
    for (std::uint64_t d = 0; d <= 4; ++d) {
      probe.push_back(std::bit_cast<double>(bits - 2 + d));
    }
  };
  for (const std::int64_t hx : {kHxTiny, kHxSmall, kHxUnit, kHxHuge}) {
    around(static_cast<std::uint64_t>(hx) << 32);
  }
  // 1 + x at the √2 fold and at powers of two (hu == 0 and its edges).
  for (const double edge : {0x1.6a09ep0, 2.0, 4.0, 0x1p20}) {
    around(std::bit_cast<std::uint64_t>(edge - 1.0));
  }
  return probe;
}

// The host probe's log-uniform draws over [2⁻⁶⁰, 2⁵⁴), checked in blocks
// so the probe's memory stays on the stack. The port without glibc's
// fused steps differs from libm on about one input in 10⁴ (1,905 of
// 2.1·10⁷); a libm that far off passes 2¹⁷ draws with probability e⁻¹².
constexpr std::size_t kProbeDraws = std::size_t{1} << 17;
constexpr std::size_t kProbeBlock = 512;

// Whether every vector tier the host runs returns std::log1p's bits on
// inputs [0, n), n ≤ kProbeBlock.
bool TiersMatchLibm(const double* inputs, std::size_t n) {
  std::uint64_t want[kProbeBlock];
  for (std::size_t k = 0; k < n; ++k) {
    want[k] = std::bit_cast<std::uint64_t>(std::log1p(inputs[k]));
  }
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (ResolveSimdLevel(level) != level) continue;
    double lanes[kProbeBlock];
    std::memcpy(lanes, inputs, n * sizeof(double));
    Log1pInPlace(level, lanes, n);
    if (std::memcmp(lanes, want, n * sizeof(double)) != 0) return false;
  }
  return true;
}

#endif  // FADESCHED_SIMD_X86

}  // namespace

std::size_t LaneCount(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return 8;
    case SimdLevel::kAvx2:
      return 4;
    default:
      return 1;
  }
}

std::size_t AccumulateLanes(SimdLevel level, const TermSource& source,
                            const NeumaierSums<double>& sums, char* alive,
                            std::size_t skip, double budget,
                            std::size_t begin, std::size_t end) {
  switch (level) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return avx512::Accumulate(source, sums, alive, skip, budget, begin,
                                  end);
    case SimdLevel::kAvx2:
      return avx2::Accumulate(source, sums, alive, skip, budget, begin, end);
#endif
    default:
      return begin;
  }
}

std::size_t AnyOverLanes(SimdLevel level, const TermSource& source,
                         const NeumaierSums<const double>& sums,
                         const std::size_t* victims, std::size_t extra,
                         double budget, std::size_t begin, std::size_t count,
                         bool& over) {
  switch (level) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return avx512::AnyOver(source, sums, victims, extra, budget, begin,
                             count, over);
    case SimdLevel::kAvx2:
      return avx2::AnyOver(source, sums, victims, extra, budget, begin, count,
                           over);
#endif
    default:
      return begin;
  }
}

void Log1pInPlace(SimdLevel level, double* io, std::size_t n) {
  switch (level) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return avx512::Log1p(io, n);
    case SimdLevel::kAvx2:
      return avx2::Log1p(io, n);
#endif
    default:
      for (std::size_t k = 0; k < n; ++k) io[k] = std::log1p(io[k]);
  }
}

bool Log1pLanesMatchLibm() {
  static const bool match = [] {
#ifdef FADESCHED_SIMD_X86
    if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
      return false;
    }
    const std::vector<double> thresholds = ThresholdInputs();
    if (!TiersMatchLibm(thresholds.data(), thresholds.size())) return false;
    rng::SplitMix64 gen(0x6c6f673170ull);
    double draws[kProbeBlock];
    for (std::uint64_t block = 0; block < kProbeDraws / kProbeBlock;
         ++block) {
      // One binade per block, cycling through 2⁻⁶⁰ … 2⁵³ (biased exponent
      // 963 … 1076), so libm's and the lanes' branches stay predictable.
      const std::uint64_t exponent = 963 + block % 114;
      for (double& x : draws) {
        x = std::bit_cast<double>((exponent << 52) |
                                  (gen.Next() & 0xfffffffffffffull));
      }
      if (!TiersMatchLibm(draws, kProbeBlock)) return false;
    }
    return true;
#else
    return false;
#endif
  }();
  return match;
}

}  // namespace fadesched::channel::simd
