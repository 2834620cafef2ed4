// Runtime SIMD dispatch for the vectorized kernels: the §II fading draw
// (channel/exponential_kernel) and the Corollary 3.1 accumulator
// (channel/accumulator_kernel).
//
// The repository builds without -march flags so one binary runs on any
// x86-64 (and non-x86) host; the vector kernels are compiled per-function
// with `__attribute__((target(...)))` (or a `#pragma GCC target` region)
// and selected here at runtime:
//
//   kAvx512 — AVX-512 F/DQ/VL.
//   kAvx2   — AVX2+FMA.
//   kScalar — portable fallback; also what `FADESCHED_SIMD_LEVEL=scalar`
//             forces.
//
// Both kernels' tiers are bit-identical to their scalar code (the
// accumulator's factor lanes port glibc's FMA build of log1p, which is
// what std::log1p runs on every host with a vector tier; see
// accumulator_kernel.hpp), so the tier changes speed, never results.
//
// Dispatch is observable and overridable in two ways:
//   * process-wide, via the environment (CI's forced-scalar and AVX2 runs):
//       FADESCHED_SIMD_LEVEL=LEVEL   cap at scalar|avx2|avx512
//   * per thread, with a ScopedSimdLevel guard (tests and micro_schedulers
//     run whole schedulers at each tier in one process).
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

/// DetectSimdLevel() capped by the FADESCHED_SIMD_LEVEL environment
/// override. Read once per process.
[[nodiscard]] SimdLevel ActiveSimdLevel();

/// Pure core of ActiveSimdLevel, exposed for tests: applies the
/// environment string (may be null) to `hardware`. Unknown level strings
/// are ignored — the variable can only cap, never raise.
[[nodiscard]] SimdLevel ApplySimdEnv(SimdLevel hardware, const char* level_cap);

/// Maps a requested level to the one that will actually run: kAuto →
/// the calling thread's ScopedSimdLevel if one is live, else
/// ActiveSimdLevel(); an explicit request bypasses the environment caps
/// (so tests can pin a tier regardless of CI settings) but is clamped to
/// what the hardware supports.
[[nodiscard]] SimdLevel ResolveSimdLevel(SimdLevel requested);

/// Pins what kAuto resolves to on the calling thread while the guard
/// lives, as if `level` had been requested explicitly (so it bypasses the
/// environment caps and is clamped to the hardware). Benches and tests use
/// it to run whole schedulers at each tier in one process. Other threads,
/// a ThreadPool's workers included, are not affected. Guards nest.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

}  // namespace fadesched::channel
