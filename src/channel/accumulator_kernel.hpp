// Vector tiers of the Corollary 3.1 accumulator (IncrementalFeasibility).
//
// One interferer i's term onto receiver j is the kTables expression
//
//   a_ij = (coeff_j · P_i) / d_ij^α,   f_ij = log1p(a_ij),
//
// with d^α evaluated by HalfPowerKernel's quarter-integer chain. The
// lanes add it onto a run of receivers' Neumaier sums and, given an alive
// mask, run RLE's rule-B prune in the same pass: a receiver whose
// (noise + sum) + comp now exceeds the budget is cleared. The body is
// written once over GCC vector types and instantiated four lanes wide
// (AVX2+FMA) and eight (AVX-512); kScalar is the caller's own loop.
//
// Bit-identity with that scalar loop, per operation:
//   * the affectance is a chain of correctly rounded IEEE operations (a
//     true divide and square root, no FMA) in the scalar order, and the
//     project is built with -ffp-contract=off, so every tier gives the
//     same a_ij;
//   * the Neumaier update and the prune compare are evaluated lane-wise
//     with the scalar's operations, both branch forms computed and
//     selected by the same comparison;
//   * log1p is a port of glibc's log1p as glibc builds it for FMA hosts
//     (x86_64 multiarch: libm's log1p is an ifunc that resolves to an
//     FMA-built copy of the dbl-64 Estrin code when the CPU has FMA and
//     AVX2, and to an SSE2 build otherwise). The port evaluates glibc's
//     branch forms in glibc's order with an explicit fused multiply-add
//     at exactly the points GCC fused in that build, so it returns what
//     std::log1p returns on every host that can dispatch a vector tier.
//     Log1pLanesMatchLibm() checks that on the running host before the
//     factor lanes are used.
//
// Lanes the port does not take — a coincident sender and receiver, a
// non-finite term, a_ij ≥ 2⁵³, or glibc's |f| < 2⁻²⁰ form (hu == 0) —
// stop the lanes at their chunk, and the caller runs that chunk through
// its scalar path (which raises the same checks as before).
#pragma once

#include <cstddef>

#include "channel/simd_dispatch.hpp"

namespace fadesched::channel::simd {

/// HalfPowerKernel decomposition replicated lane-wise:
/// d^α = (d²)^whole · (√d²)^use_sqrt · ((d²)^¼)^use_quarter.
struct RowKernelSpec {
  int whole = 0;
  bool use_sqrt = false;
  bool use_quarter = false;
  bool affectance = false;  ///< a_ij instead of f_ij = ln(1 + a_ij)
};

/// One interferer's kTables terms: the lanes derive each receiver's term
/// from the receiver tables and the interferer's sender (spec.affectance
/// selects a_ij over f_ij).
struct TermSource {
  const double* rx = nullptr;     ///< receiver x, by receiver id
  const double* ry = nullptr;     ///< receiver y
  const double* coeff = nullptr;  ///< γ_th · d_jj^α / P_j
  double sx = 0.0;                ///< the interferer's sender
  double sy = 0.0;
  double power = 0.0;             ///< the interferer's effective power
  RowKernelSpec spec;
};

/// Per-receiver Neumaier state; Sum(j) = (noise[j] + sum[j]) + comp[j].
/// T is double where the lanes write the sums, const double where they
/// only read them.
template <typename T>
struct NeumaierSums {
  const double* noise = nullptr;
  T* sum = nullptr;
  T* comp = nullptr;
};

/// Receivers per chunk at a resolved tier (1 for kScalar).
[[nodiscard]] std::size_t LaneCount(SimdLevel level);

/// Adds the source's term onto receivers [begin, end) in chunks of
/// LaneCount(level) and returns where it stopped. A receiver j takes the
/// term iff j != skip and alive[j] != 0, and the prune then clears
/// alive[j] where Sum(j) > budget. Chunks without a live receiver are
/// skipped whole. The return value is either
/// a chunk the lanes could not take (the caller runs [r, r + lanes)
/// through its scalar path and calls again from r + lanes) or the start
/// of the tail shorter than a chunk. `level` must be a resolved vector
/// tier.
[[nodiscard]] std::size_t AccumulateLanes(SimdLevel level,
                                          const TermSource& source,
                                          const NeumaierSums<double>& sums,
                                          char* alive, std::size_t skip,
                                          double budget, std::size_t begin,
                                          std::size_t end);

/// Greedy's member test over gathered receivers: sets `over` and stops at
/// the first chunk where Sum(v) + term(v) > budget for some victim v =
/// victims[k] (a victim equal to `extra` takes no term). Returns where it
/// stopped, as AccumulateLanes does; `over` set means the answer is yes.
[[nodiscard]] std::size_t AnyOverLanes(SimdLevel level,
                                       const TermSource& source,
                                       const NeumaierSums<const double>& sums,
                                       const std::size_t* victims,
                                       std::size_t extra, double budget,
                                       std::size_t begin, std::size_t count,
                                       bool& over);

/// io[k] = log1p(io[k]) through the vector tier's lanes; lanes the port
/// does not take, the tail and kScalar use std::log1p. Exposed for the
/// differential tests and the host check below.
void Log1pInPlace(SimdLevel level, double* io, std::size_t n);

/// True when the host can run the factor lanes bit-identically to
/// std::log1p: it has FMA and AVX2 (glibc's condition for its FMA build)
/// and the lanes agree with std::log1p on every branch threshold and on
/// 2¹⁷ log-uniform draws. Evaluated once per process (about 3 ms).
[[nodiscard]] bool Log1pLanesMatchLibm();

}  // namespace fadesched::channel::simd
