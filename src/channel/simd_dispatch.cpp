#include "channel/simd_dispatch.hpp"

#include <cstdlib>
#include <string>

namespace fadesched::channel {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdLevel DetectSimdLevel() {
#if defined(__x86_64__) || defined(_M_X64)
  static const SimdLevel detected = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return SimdLevel::kAvx2;
    }
    return SimdLevel::kScalar;
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ApplySimdEnv(SimdLevel hardware, const char* level_cap) {
  if (level_cap == nullptr) return hardware;
  const std::string cap(level_cap);
  SimdLevel parsed = hardware;
  if (cap == "scalar") {
    parsed = SimdLevel::kScalar;
  } else if (cap == "avx2") {
    parsed = SimdLevel::kAvx2;
  } else if (cap == "avx512") {
    parsed = SimdLevel::kAvx512;
  }
  return parsed < hardware ? parsed : hardware;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel active =
      ApplySimdEnv(DetectSimdLevel(), std::getenv("FADESCHED_SIMD_LEVEL"));
  return active;
}

namespace {
thread_local SimdLevel pinned_level = SimdLevel::kAuto;
}  // namespace

SimdLevel ResolveSimdLevel(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) {
    if (pinned_level == SimdLevel::kAuto) return ActiveSimdLevel();
    requested = pinned_level;
  }
  const SimdLevel hardware = DetectSimdLevel();
  return requested < hardware ? requested : hardware;
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level) : previous_(pinned_level) {
  pinned_level = level;
}

ScopedSimdLevel::~ScopedSimdLevel() { pinned_level = previous_; }

}  // namespace fadesched::channel
