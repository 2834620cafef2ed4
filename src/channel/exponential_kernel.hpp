// Batched exponential transform of the §II fading draw.
//
// sim::DrawRealization fills one realization's m² complements 1 − U from
// the trial's serial xoshiro stream, then makes one call here to turn them
// into Rayleigh powers Z = −mean·ln(1 − U). Only the log is vectorized, so
// the draw order and count are those of m² scalar rng::Exponential calls.
//
// All three dispatch tiers evaluate rng::LogPositive (fdlibm's log) with
// the same correctly-rounded operations in the same order — a true
// divide, no reciprocal seeds, no FMA — and the project is built with
// -ffp-contract=off, so kScalar, kAvx2 and kAvx512 are bit-identical to
// each other and to rng::Exponential.
#pragma once

#include <cstddef>

#include "channel/simd_dispatch.hpp"

namespace fadesched::channel::simd {

/// io[k] = −mean[k]·rng::LogPositive(io[k]) for k < n. Every io[k] must be
/// a positive normal double (1 − U lies in [2⁻⁵³, 1]). `level` is resolved
/// via ResolveSimdLevel, so kAuto honors FADESCHED_SIMD_LEVEL; the result
/// bits do not depend on it.
void ExponentialInPlace(SimdLevel level, const double* mean, double* io,
                        std::size_t n);

}  // namespace fadesched::channel::simd
