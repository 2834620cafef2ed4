// Monotonic watchdog deadline for cooperative cancellation.
//
// C++ cannot preempt a compute thread, so deadlines are enforced at
// checkpoints the workload already passes (per trial chunk, between
// schedulers). A default-constructed Deadline is disabled and never
// expires, so hot loops can check unconditionally.
#pragma once

#include <chrono>
#include <limits>

namespace fadesched::util {

class Deadline {
 public:
  /// Disabled deadline: Expired() is always false.
  Deadline() = default;

  /// Deadline `seconds` from now on the steady clock. Non-positive
  /// seconds yields a disabled deadline (convenient for "0 = no limit"
  /// flags). A deadline past the clock's range (+inf, or centuries) is
  /// enabled but never expires: it saturates instead of overflowing the
  /// clock's integer nanoseconds.
  static Deadline After(double seconds) {
    using Clock = std::chrono::steady_clock;
    Deadline d;
    if (seconds > 0.0) {
      d.enabled_ = true;
      const Clock::time_point now = Clock::now();
      // Half the range left keeps the double-to-integer conversion clear
      // of rounding at the edge; it is still about 146 years.
      const double limit =
          std::chrono::duration<double>(Clock::time_point::max() - now)
              .count() / 2;
      d.due_ = seconds < limit
                   ? now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))
                   : Clock::time_point::max();
    }
    return d;
  }

  [[nodiscard]] bool Enabled() const { return enabled_; }

  [[nodiscard]] bool Expired() const {
    return enabled_ && std::chrono::steady_clock::now() >= due_;
  }

  /// Seconds until expiry; +inf when disabled or saturated, clamped at 0
  /// when past due.
  [[nodiscard]] double RemainingSeconds() const {
    if (!enabled_ || due_ == std::chrono::steady_clock::time_point::max()) {
      return std::numeric_limits<double>::infinity();
    }
    const auto left = std::chrono::duration<double>(
        due_ - std::chrono::steady_clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point due_{};
};

}  // namespace fadesched::util
