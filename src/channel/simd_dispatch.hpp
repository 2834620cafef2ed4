// Runtime SIMD dispatch for the vectorized interference kernel.
//
// The repository builds without -march flags so one binary runs on any
// x86-64 (and non-x86) host; the vector kernels are compiled per-function
// with `__attribute__((target(...)))` and selected here at runtime:
//
//   kAvx512 — AVX-512 F/DQ/VL. Uses reciprocal/rsqrt seed iterations, so
//             results differ from the scalar expression by a few ULP
//             (the precision ladder bounds and repairs the difference).
//   kAvx2   — AVX2+FMA with real vdivpd/vsqrtpd, written as kScalar's
//             correctly-rounded operations in kScalar's order, four lanes
//             at a time. That does not make it bit-identical: the kernel
//             TU is built with -ffp-contract=fast, and GCC 12 fuses four
//             multiply/add pairs of Avx2Fill into FMAs, which round once
//             instead of twice. What is pinned is narrower:
//             SimdKernelTest.Avx2IsBitIdenticalToScalar compares rows bit
//             for bit on one fixed sample (131 links, five α, both row
//             modes), and EveryTierWithinBandOfExactExpression bounds
//             every tier against the exact expression in ULPs.
//   kScalar — portable fallback; also what `FADESCHED_NO_SIMD=1` forces.
//
// Dispatch is observable and overridable in two ways:
//   * process-wide, via the environment (CI's forced-scalar runs):
//       FADESCHED_NO_SIMD=1          force kScalar
//       FADESCHED_SIMD_LEVEL=LEVEL   cap at scalar|avx2|avx512
//   * per-engine, via PrecisionLadderOptions::force_level (tests pin
//     both dispatch modes inside one process).
#pragma once

namespace fadesched::channel {

/// Ordered capability tiers; larger = wider. kAuto is a request value
/// only ("resolve at runtime") and never a resolved level.
enum class SimdLevel {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

[[nodiscard]] const char* SimdLevelName(SimdLevel level);

/// Best tier this CPU supports (cpuid probe, cached; kScalar off x86-64).
[[nodiscard]] SimdLevel DetectSimdLevel();

/// DetectSimdLevel() capped by the FADESCHED_NO_SIMD /
/// FADESCHED_SIMD_LEVEL environment overrides. Read once per process.
[[nodiscard]] SimdLevel ActiveSimdLevel();

/// Pure core of ActiveSimdLevel, exposed for tests: applies the two
/// environment strings (either may be null) to `hardware`. Unknown level
/// strings are ignored — the variables can only cap, never raise.
[[nodiscard]] SimdLevel ApplySimdEnv(SimdLevel hardware, const char* no_simd,
                                     const char* level_cap);

/// Maps a requested level to the one that will actually run: kAuto →
/// ActiveSimdLevel(); an explicit request bypasses the environment caps
/// (so tests can pin a tier regardless of CI settings) but is clamped to
/// what the hardware supports.
[[nodiscard]] SimdLevel ResolveSimdLevel(SimdLevel requested);

}  // namespace fadesched::channel
