#include "channel/simd_kernel.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "rng/log_positive.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FADESCHED_SIMD_X86 1
#include <immintrin.h>
#define FS_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define FS_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))
#if defined(__GNUC__) && !defined(__clang__)
// gcc's getmant/getexp/rcp14/rsqrt14 wrappers pass _mm512_undefined_pd()
// as the masked-merge source; inlined here that don't-care operand trips
// -Wmaybe-uninitialized even though no lane of it is ever selected.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace fadesched::channel::simd {
namespace {

// ln(1+a) switches from the alternating series to the full log at 2⁻⁶:
// below it the truncated a⁸/9 tail is < 2⁻⁵¹ relative, and in the
// engine's geometry the vast majority of affectances are far smaller.
constexpr double kSeriesMax = 0x1p-6;

// Series coefficients (−1)ᵏ/(k+1) for ln(1+a)/a, Horner top-down.
constexpr double kS7 = -1.0 / 8.0;
constexpr double kS6 = 1.0 / 7.0;
constexpr double kS5 = -1.0 / 6.0;
constexpr double kS4 = 1.0 / 5.0;
constexpr double kS3 = -1.0 / 4.0;
constexpr double kS2 = 1.0 / 3.0;
constexpr double kS1 = -1.0 / 2.0;

// fdlibm log(): atanh-series split polynomial over s = (m−1)/(m+1) with
// m folded into [√2/2, √2), plus the exact-sum split of ln 2 — the
// constants of rng::LogPositive.
using rng::kLg1;
using rng::kLg2;
using rng::kLg3;
using rng::kLg4;
using rng::kLg5;
using rng::kLg6;
using rng::kLg7;
using rng::kLn2Hi;
using rng::kLn2Lo;
constexpr double kSqrt2 = 1.4142135623730951;

constexpr std::uint64_t kMantissaMask = 0x000FFFFFFFFFFFFFull;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;

// ---------------------------------------------------------------------------
// Scalar tier — the fast expression the AVX2 tier matches bit-for-bit.
// ---------------------------------------------------------------------------

double ScalarDistPow(const RowKernelSpec& spec, double d2) {
  double p = d2;
  for (int k = 1; k < spec.whole; ++k) p *= d2;
  if (spec.whole == 0) p = 1.0;
  if (spec.use_sqrt) p *= std::sqrt(d2);
  if (spec.use_quarter) p *= std::sqrt(std::sqrt(d2));
  return p;
}

double ScalarFastLog1p(double a) {
  // Non-finite a passes through so the caller can promote the entry to
  // the exact path (mirrors the vector tiers' bad-lane blend).
  if (!(a < std::numeric_limits<double>::infinity())) return a;
  if (a < kSeriesMax) {
    double t = kS7;
    t = std::fma(a, t, kS6);
    t = std::fma(a, t, kS5);
    t = std::fma(a, t, kS4);
    t = std::fma(a, t, kS3);
    t = std::fma(a, t, kS2);
    t = std::fma(a, t, kS1);
    t = std::fma(a, t, 1.0);
    return a * t;
  }
  const double u = 1.0 + a;
  const double du = u - 1.0;
  const double alow = a - du;  // rounding error of 1+a
  // First-order correction ln(u + alow) ≈ ln(u) + alow/u with 1/u
  // linearized as (2−u); only valid (and only significant) for u < 2.
  const double c = u < 2.0 ? alow * (2.0 - u) : 0.0;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const double eraw = static_cast<double>(bits >> 52);
  double e = eraw - 1023.0;
  double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  if (m > kSqrt2) {
    m *= 0.5;
    e += 1.0;
  }
  const double f1 = m - 1.0;
  const double f2 = m + 1.0;
  const double s = f1 / f2;
  const double z = s * s;
  const double w = z * z;
  double t1 = std::fma(w, kLg6, kLg4);
  t1 = std::fma(w, t1, kLg2);
  t1 = w * t1;
  double t2 = std::fma(w, kLg7, kLg5);
  t2 = std::fma(w, t2, kLg3);
  t2 = std::fma(w, t2, kLg1);
  t2 = z * t2;
  const double rr = t1 + t2;
  const double srr = s * rr;
  double acc = std::fma(e, kLn2Lo, c);
  acc = acc + srr;
  acc = std::fma(s, 2.0, acc);
  return std::fma(e, kLn2Hi, acc);
}

bool ScalarFill(const RowKernelSpec& spec, const double* sx, const double* sy,
                const double* pw, std::size_t n, double rx, double ry,
                double coeff, double* out) {
  bool bad = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double f =
        ScalarFastEntry(spec, sx[i] - rx, sy[i] - ry, coeff * pw[i]);
    out[i] = f;
    bad |= !std::isfinite(f);
  }
  return bad;
}

#ifdef FADESCHED_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier — four lanes of the scalar expression, bit-identical to it
// (sub/mul/fma/div/sqrt are all correctly rounded, same order).
// ---------------------------------------------------------------------------

FS_TARGET_AVX2 inline __m256d DistPow256(const RowKernelSpec& spec,
                                         __m256d d2) {
  __m256d p = d2;
  for (int k = 1; k < spec.whole; ++k) p = _mm256_mul_pd(p, d2);
  if (spec.whole == 0) p = _mm256_set1_pd(1.0);
  if (spec.use_sqrt) p = _mm256_mul_pd(p, _mm256_sqrt_pd(d2));
  if (spec.use_quarter) {
    p = _mm256_mul_pd(p, _mm256_sqrt_pd(_mm256_sqrt_pd(d2)));
  }
  return p;
}

FS_TARGET_AVX2 inline __m256d Log1pLanes256(__m256d a) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d t = _mm256_set1_pd(kS7);
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS6));
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS5));
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS4));
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS3));
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS2));
  t = _mm256_fmadd_pd(a, t, _mm256_set1_pd(kS1));
  t = _mm256_fmadd_pd(a, t, one);
  __m256d f = _mm256_mul_pd(a, t);

  const __m256d big =
      _mm256_cmp_pd(a, _mm256_set1_pd(kSeriesMax), _CMP_NLT_UQ);
  if (_mm256_movemask_pd(big) != 0) {
    const __m256d two = _mm256_set1_pd(2.0);
    const __m256d u = _mm256_add_pd(one, a);
    const __m256d du = _mm256_sub_pd(u, one);
    const __m256d alow = _mm256_sub_pd(a, du);
    const __m256d lowu = _mm256_cmp_pd(u, two, _CMP_LT_OQ);
    const __m256d c = _mm256_and_pd(
        lowu, _mm256_mul_pd(alow, _mm256_sub_pd(two, u)));
    const __m256i bits = _mm256_castpd_si256(u);
    const __m256i ebits = _mm256_srli_epi64(bits, 52);
    const __m256d eraw = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            ebits, _mm256_set1_epi64x(0x4330000000000000LL))),
        _mm256_set1_pd(4503599627370496.0));  // 2^52
    __m256d e = _mm256_sub_pd(eraw, _mm256_set1_pd(1023.0));
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits,
                         _mm256_set1_epi64x(static_cast<long long>(
                             kMantissaMask))),
        _mm256_set1_epi64x(static_cast<long long>(kOneBits))));
    const __m256d fold = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
    e = _mm256_blendv_pd(e, _mm256_add_pd(e, one), fold);
    const __m256d f1 = _mm256_sub_pd(m, one);
    const __m256d f2 = _mm256_add_pd(m, one);
    const __m256d s = _mm256_div_pd(f1, f2);
    const __m256d z = _mm256_mul_pd(s, s);
    const __m256d w = _mm256_mul_pd(z, z);
    __m256d t1 = _mm256_fmadd_pd(w, _mm256_set1_pd(kLg6), _mm256_set1_pd(kLg4));
    t1 = _mm256_fmadd_pd(w, t1, _mm256_set1_pd(kLg2));
    t1 = _mm256_mul_pd(w, t1);
    __m256d t2 = _mm256_fmadd_pd(w, _mm256_set1_pd(kLg7), _mm256_set1_pd(kLg5));
    t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(kLg3));
    t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(kLg1));
    t2 = _mm256_mul_pd(z, t2);
    const __m256d rr = _mm256_add_pd(t1, t2);
    const __m256d srr = _mm256_mul_pd(s, rr);
    __m256d acc = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), c);
    acc = _mm256_add_pd(acc, srr);
    acc = _mm256_fmadd_pd(s, two, acc);
    const __m256d flog = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Hi), acc);
    f = _mm256_blendv_pd(f, flog, big);
    const __m256d bad = _mm256_cmp_pd(
        a, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
        _CMP_NLT_UQ);
    f = _mm256_blendv_pd(f, a, bad);
  }
  return f;
}

FS_TARGET_AVX2 inline __m256d FactorLanes256(const RowKernelSpec& spec,
                                             __m256d vsx, __m256d vsy,
                                             __m256d vpw, __m256d vrx,
                                             __m256d vry, __m256d vcoeff) {
  const __m256d dx = _mm256_sub_pd(vsx, vrx);
  const __m256d dy = _mm256_sub_pd(vsy, vry);
  __m256d d2 = _mm256_mul_pd(dx, dx);
  d2 = _mm256_fmadd_pd(dy, dy, d2);
  const __m256d p = DistPow256(spec, d2);
  const __m256d cp = _mm256_mul_pd(vcoeff, vpw);
  const __m256d a = _mm256_div_pd(cp, p);
  if (spec.affectance) return a;
  return Log1pLanes256(a);
}

FS_TARGET_AVX2 bool Avx2Fill(const RowKernelSpec& spec, const double* sx,
                             const double* sy, const double* pw, std::size_t n,
                             double rx0, double ry0, double c0, double* out0,
                             bool pair, double rx1, double ry1, double c1,
                             double* out1) {
  const __m256d vrx0 = _mm256_set1_pd(rx0);
  const __m256d vry0 = _mm256_set1_pd(ry0);
  const __m256d vc0 = _mm256_set1_pd(c0);
  const __m256d vrx1 = _mm256_set1_pd(rx1);
  const __m256d vry1 = _mm256_set1_pd(ry1);
  const __m256d vc1 = _mm256_set1_pd(c1);
  // Non-finiteness of the written values, accumulated in-register:
  // !(|f| < inf) is true exactly for ±inf and NaN.
  const __m256d absmask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d vinf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d badacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vsx = _mm256_loadu_pd(sx + i);
    const __m256d vsy = _mm256_loadu_pd(sy + i);
    const __m256d vpw = _mm256_loadu_pd(pw + i);
    const __m256d f0 = FactorLanes256(spec, vsx, vsy, vpw, vrx0, vry0, vc0);
    _mm256_storeu_pd(out0 + i, f0);
    badacc = _mm256_or_pd(
        badacc, _mm256_cmp_pd(_mm256_and_pd(f0, absmask), vinf, _CMP_NLT_UQ));
    if (pair) {
      const __m256d f1 = FactorLanes256(spec, vsx, vsy, vpw, vrx1, vry1, vc1);
      _mm256_storeu_pd(out1 + i, f1);
      badacc = _mm256_or_pd(
          badacc,
          _mm256_cmp_pd(_mm256_and_pd(f1, absmask), vinf, _CMP_NLT_UQ));
    }
  }
  bool bad = _mm256_movemask_pd(badacc) != 0;
  for (; i < n; ++i) {
    const double f0 =
        ScalarFastEntry(spec, sx[i] - rx0, sy[i] - ry0, c0 * pw[i]);
    out0[i] = f0;
    bad |= !std::isfinite(f0);
    if (pair) {
      const double f1 =
          ScalarFastEntry(spec, sx[i] - rx1, sy[i] - ry1, c1 * pw[i]);
      out1[i] = f1;
      bad |= !std::isfinite(f1);
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// AVX-512 tier — rsqrt14/rcp14 seeds + Newton iterations replace every
// divide and square root on the hot path; a few ULP from the scalar
// expression (bounded by the precision ladder), ~2.5× its throughput.
// ---------------------------------------------------------------------------

FS_TARGET_AVX512 inline __m512d Log1pLanes512(__m512d a) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d t = _mm512_set1_pd(kS7);
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS6));
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS5));
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS4));
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS3));
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS2));
  t = _mm512_fmadd_pd(a, t, _mm512_set1_pd(kS1));
  t = _mm512_fmadd_pd(a, t, one);
  __m512d f = _mm512_mul_pd(a, t);

  const __mmask8 big =
      _mm512_cmp_pd_mask(a, _mm512_set1_pd(kSeriesMax), _CMP_NLT_UQ);
  if (big != 0) {
    const __m512d two = _mm512_set1_pd(2.0);
    const __m512d half = _mm512_set1_pd(0.5);
    const __m512d u = _mm512_add_pd(one, a);
    const __m512d du = _mm512_sub_pd(u, one);
    const __m512d alow = _mm512_sub_pd(a, du);
    const __mmask8 lowu = _mm512_cmp_pd_mask(u, two, _CMP_LT_OQ);
    const __m512d c =
        _mm512_maskz_mul_pd(lowu, alow, _mm512_sub_pd(two, u));
    __m512d m = _mm512_getmant_pd(u, _MM_MANT_NORM_1_2, _MM_MANT_SIGN_zero);
    __m512d e = _mm512_getexp_pd(u);
    const __mmask8 fold =
        _mm512_cmp_pd_mask(m, _mm512_set1_pd(kSqrt2), _CMP_GT_OQ);
    m = _mm512_mask_mul_pd(m, fold, m, half);
    e = _mm512_mask_add_pd(e, fold, e, one);
    const __m512d f1 = _mm512_sub_pd(m, one);
    const __m512d f2 = _mm512_add_pd(m, one);
    __m512d q = _mm512_rcp14_pd(f2);
    for (int it = 0; it < 2; ++it) {
      const __m512d eq = _mm512_fnmadd_pd(f2, q, one);
      q = _mm512_fmadd_pd(q, eq, q);
    }
    const __m512d s = _mm512_mul_pd(f1, q);
    const __m512d z = _mm512_mul_pd(s, s);
    const __m512d w = _mm512_mul_pd(z, z);
    __m512d t1 = _mm512_fmadd_pd(w, _mm512_set1_pd(kLg6), _mm512_set1_pd(kLg4));
    t1 = _mm512_fmadd_pd(w, t1, _mm512_set1_pd(kLg2));
    t1 = _mm512_mul_pd(w, t1);
    __m512d t2 = _mm512_fmadd_pd(w, _mm512_set1_pd(kLg7), _mm512_set1_pd(kLg5));
    t2 = _mm512_fmadd_pd(w, t2, _mm512_set1_pd(kLg3));
    t2 = _mm512_fmadd_pd(w, t2, _mm512_set1_pd(kLg1));
    t2 = _mm512_mul_pd(z, t2);
    const __m512d rr = _mm512_add_pd(t1, t2);
    const __m512d srr = _mm512_mul_pd(s, rr);
    __m512d acc = _mm512_fmadd_pd(e, _mm512_set1_pd(kLn2Lo), c);
    acc = _mm512_add_pd(acc, srr);
    acc = _mm512_fmadd_pd(s, two, acc);
    const __m512d flog = _mm512_fmadd_pd(e, _mm512_set1_pd(kLn2Hi), acc);
    f = _mm512_mask_mov_pd(f, big, flog);
    const __mmask8 bad = _mm512_cmp_pd_mask(
        a, _mm512_set1_pd(std::numeric_limits<double>::infinity()),
        _CMP_NLT_UQ);
    f = _mm512_mask_mov_pd(f, bad, a);
  }
  return f;
}

FS_TARGET_AVX512 inline __m512d FactorLanes512(const RowKernelSpec& spec,
                                               __m512d vsx, __m512d vsy,
                                               __m512d vpw, __m512d vrx,
                                               __m512d vry, __m512d vcoeff) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d dx = _mm512_sub_pd(vsx, vrx);
  const __m512d dy = _mm512_sub_pd(vsy, vry);
  __m512d d2 = _mm512_mul_pd(dx, dx);
  d2 = _mm512_fmadd_pd(dy, dy, d2);
  // r ≈ d2^(-1/2): rsqrt14 seed, two Newton steps. Zero/denormal d2
  // degenerates to NaN here, which the bad-lane handling downstream
  // turns into an exact-path promotion — identical FS_CHECK behavior to
  // the exact build.
  __m512d r = _mm512_rsqrt14_pd(d2);
  for (int it = 0; it < 2; ++it) {
    const __m512d t = _mm512_mul_pd(d2, r);
    const __m512d e = _mm512_fnmadd_pd(t, r, one);
    const __m512d hr = _mm512_mul_pd(half, r);
    r = _mm512_fmadd_pd(hr, e, r);
  }
  // inv0 ≈ d^-α and p ≈ d^α through the same quarter-integer chain as
  // the scalar kernel, then one reciprocal-Newton refinement of inv0
  // against p. The refinement pins the large-α error to the chain's own
  // rounding (~2-3 ULP even at α=10), and overflow/underflow of p turns
  // the lane NaN — again promoting extreme geometry to the exact path.
  const __m512d ir2 = _mm512_mul_pd(r, r);
  __m512d inv0 = spec.whole > 0 ? ir2 : one;
  for (int k = 1; k < spec.whole; ++k) inv0 = _mm512_mul_pd(inv0, ir2);
  __m512d p = spec.whole > 0 ? d2 : one;
  for (int k = 1; k < spec.whole; ++k) p = _mm512_mul_pd(p, d2);
  if (spec.use_sqrt || spec.use_quarter) {
    const __m512d dd = _mm512_mul_pd(d2, r);  // ≈ √d2
    if (spec.use_sqrt) {
      inv0 = _mm512_mul_pd(inv0, r);
      p = _mm512_mul_pd(p, dd);
    }
    if (spec.use_quarter) {
      inv0 = _mm512_mul_pd(inv0, _mm512_sqrt_pd(r));
      p = _mm512_mul_pd(p, _mm512_sqrt_pd(dd));
    }
  }
  const __m512d ep = _mm512_fnmadd_pd(p, inv0, one);
  const __m512d inv_p = _mm512_fmadd_pd(inv0, ep, inv0);
  const __m512d cp = _mm512_mul_pd(vcoeff, vpw);
  const __m512d a = _mm512_mul_pd(cp, inv_p);
  if (spec.affectance) return a;
  return Log1pLanes512(a);
}

FS_TARGET_AVX512 bool Avx512Fill(const RowKernelSpec& spec, const double* sx,
                                 const double* sy, const double* pw,
                                 std::size_t n, double rx0, double ry0,
                                 double c0, double* out0, bool pair,
                                 double rx1, double ry1, double c1,
                                 double* out1) {
  const __m512d vrx0 = _mm512_set1_pd(rx0);
  const __m512d vry0 = _mm512_set1_pd(ry0);
  const __m512d vc0 = _mm512_set1_pd(c0);
  const __m512d vrx1 = _mm512_set1_pd(rx1);
  const __m512d vry1 = _mm512_set1_pd(ry1);
  const __m512d vc1 = _mm512_set1_pd(c1);
  // Non-temporal stores skip the read-for-ownership on the O(N²) output
  // (it will not be re-read until long after the build); they demand
  // 64-byte-aligned addresses, which holds for every iteration when the
  // row base is aligned (each step advances exactly one cache line).
  const bool stream0 =
      (reinterpret_cast<std::uintptr_t>(out0) & 63u) == 0;
  const bool stream1 =
      pair && (reinterpret_cast<std::uintptr_t>(out1) & 63u) == 0;
  const __m512d vinf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __mmask8 badm = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vsx = _mm512_loadu_pd(sx + i);
    const __m512d vsy = _mm512_loadu_pd(sy + i);
    const __m512d vpw = _mm512_loadu_pd(pw + i);
    const __m512d f0 = FactorLanes512(spec, vsx, vsy, vpw, vrx0, vry0, vc0);
    badm = static_cast<__mmask8>(
        badm | _mm512_cmp_pd_mask(_mm512_abs_pd(f0), vinf, _CMP_NLT_UQ));
    if (stream0) {
      _mm512_stream_pd(out0 + i, f0);
    } else {
      _mm512_storeu_pd(out0 + i, f0);
    }
    if (pair) {
      const __m512d f1 = FactorLanes512(spec, vsx, vsy, vpw, vrx1, vry1, vc1);
      badm = static_cast<__mmask8>(
          badm | _mm512_cmp_pd_mask(_mm512_abs_pd(f1), vinf, _CMP_NLT_UQ));
      if (stream1) {
        _mm512_stream_pd(out1 + i, f1);
      } else {
        _mm512_storeu_pd(out1 + i, f1);
      }
    }
  }
  bool bad = badm != 0;
  for (; i < n; ++i) {
    const double f0 =
        ScalarFastEntry(spec, sx[i] - rx0, sy[i] - ry0, c0 * pw[i]);
    out0[i] = f0;
    bad |= !std::isfinite(f0);
    if (pair) {
      const double f1 =
          ScalarFastEntry(spec, sx[i] - rx1, sy[i] - ry1, c1 * pw[i]);
      out1[i] = f1;
      bad |= !std::isfinite(f1);
    }
  }
  return bad;
}

#endif  // FADESCHED_SIMD_X86

}  // namespace

double ScalarFastEntry(const RowKernelSpec& spec, double dx, double dy,
                       double cp) {
  const double d2 = std::fma(dy, dy, dx * dx);
  const double a = cp / ScalarDistPow(spec, d2);
  if (spec.affectance) return a;
  return ScalarFastLog1p(a);
}

bool FillFastRow(SimdLevel level, const RowKernelSpec& spec, const double* sx,
                 const double* sy, const double* pw, double rx, double ry,
                 double coeff, std::size_t n, double* out0) {
  switch (ResolveSimdLevel(level)) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return Avx512Fill(spec, sx, sy, pw, n, rx, ry, coeff, out0,
                        /*pair=*/false, 0.0, 0.0, 0.0, nullptr);
    case SimdLevel::kAvx2:
      return Avx2Fill(spec, sx, sy, pw, n, rx, ry, coeff, out0,
                      /*pair=*/false, 0.0, 0.0, 0.0, nullptr);
#endif
    default:
      return ScalarFill(spec, sx, sy, pw, n, rx, ry, coeff, out0);
  }
}

bool FillFastRowPair(SimdLevel level, const RowKernelSpec& spec,
                     const double* sx, const double* sy, const double* pw,
                     const double rx[2], const double ry[2],
                     const double coeff[2], std::size_t n, double* out0,
                     double* out1) {
  switch (ResolveSimdLevel(level)) {
#ifdef FADESCHED_SIMD_X86
    case SimdLevel::kAvx512:
      return Avx512Fill(spec, sx, sy, pw, n, rx[0], ry[0], coeff[0], out0,
                        /*pair=*/true, rx[1], ry[1], coeff[1], out1);
    case SimdLevel::kAvx2:
      return Avx2Fill(spec, sx, sy, pw, n, rx[0], ry[0], coeff[0], out0,
                      /*pair=*/true, rx[1], ry[1], coeff[1], out1);
#endif
    default: {
      const bool bad0 =
          ScalarFill(spec, sx, sy, pw, n, rx[0], ry[0], coeff[0], out0);
      const bool bad1 =
          ScalarFill(spec, sx, sy, pw, n, rx[1], ry[1], coeff[1], out1);
      return bad0 || bad1;
    }
  }
}

void StoreFence() {
#ifdef FADESCHED_SIMD_X86
  _mm_sfence();
#endif
}

}  // namespace fadesched::channel::simd
