#include "service/overload.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace fadesched::service {

// Each check is written so that NaN fails it: util::ParseDouble reads
// "nan", and every ordered comparison with NaN is false.
void OverloadOptions::Validate() const {
  if (!(queue_delay_target_ms >= 0.0)) {
    throw util::FatalError("queue_delay_target_ms must be >= 0");
  }
  if (!(interval_ms > 0.0)) {
    throw util::FatalError("overload interval_ms must be positive");
  }
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    throw util::FatalError("overload ewma_alpha must be in (0, 1]");
  }
  if (!(retry_after_min_ms >= 0.0) ||
      !(retry_after_max_ms >= retry_after_min_ms)) {
    throw util::FatalError("retry_after bounds must satisfy 0 <= min <= max");
  }
}

OverloadController::OverloadController(OverloadOptions options,
                                       ServiceMetrics* metrics)
    : options_(options), metrics_(metrics) {
  options_.Validate();
}

void OverloadController::ObserveQueueDelay(double seconds,
                                           Clock::time_point now) {
  if (options_.queue_delay_target_ms <= 0.0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (have_ewma_) {
    ewma_seconds_ += options_.ewma_alpha * (seconds - ewma_seconds_);
  } else {
    ewma_seconds_ = seconds;
    have_ewma_ = true;
  }
  if (metrics_ != nullptr) {
    metrics_->queue_delay_ewma_us.store(
        static_cast<std::uint64_t>(std::max(0.0, ewma_seconds_ * 1e6)),
        std::memory_order_relaxed);
  }

  const double target_s = options_.queue_delay_target_ms * 1e-3;
  // CoDel admission state: the service is overloaded only once the
  // observed delay has stayed above target for a full interval. A single
  // above-target sample arms the interval timer; any below-target sample
  // disarms it and clears the overload verdict.
  if (seconds > target_s) {
    if (!above_target_) {
      above_target_ = true;
      first_above_ = now;
    } else if (!overloaded_ &&
               std::chrono::duration<double, std::milli>(now - first_above_)
                       .count() >= options_.interval_ms) {
      overloaded_ = true;
    }
  } else {
    above_target_ = false;
    overloaded_ = false;
  }
}

AdmitDecision OverloadController::Admit(RequestClass cls,
                                        std::size_t queue_depth,
                                        Clock::time_point /*now*/) {
  if (options_.queue_delay_target_ms <= 0.0) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_depth == 0) {
    // An empty queue cannot be overloaded, whatever the history says —
    // without this reset a stale verdict would shed the first request
    // after an idle period.
    ResetLocked();
    return {};
  }
  if (!overloaded_ || cls == RequestClass::kWarm) return {};
  return {false, RetryAfterMsLocked()};
}

double OverloadController::RetryAfterMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return RetryAfterMsLocked();
}

double OverloadController::RetryAfterMsLocked() const {
  return std::clamp(2.0 * ewma_seconds_ * 1e3, options_.retry_after_min_ms,
                    options_.retry_after_max_ms);
}

bool OverloadController::Overloaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overloaded_;
}

double OverloadController::QueueDelayEwmaSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_seconds_;
}

void OverloadController::ResetLocked() {
  ewma_seconds_ = 0.0;
  have_ewma_ = false;
  overloaded_ = false;
  above_target_ = false;
  if (metrics_ != nullptr) {
    metrics_->queue_delay_ewma_us.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fadesched::service
