// Overload controller for the request batcher: CoDel-style adaptive
// admission and two-tier load shedding.
//
// The hard queue-capacity bound (batcher.hpp) protects memory; this
// controller protects *latency*. It watches the queue delay each request
// actually experienced (recorded by the worker at dequeue) and, like
// CoDel, declares the service overloaded only when that delay has stayed
// above `queue_delay_target_ms` continuously for `interval_ms` — a burst
// that drains inside one interval never sheds. While overloaded:
//
//   * cold-only shedding: requests classified kCold (their fingerprint is
//     not in the scenario/response cache, so serving them costs a full
//     engine build — tens of times a warm hit per BENCH_service.json) are
//     shed; kWarm requests are always admitted. Every shed carries a
//     `retry_after_ms` hint derived from the current queue-delay EWMA so
//     clients back off proportionally to the actual congestion instead
//     of a blind ladder.
//
// An empty queue resets everything: overload state is a statement about
// the queue, and a drained queue has none. All decisions are pure
// functions of the observation stream and the injected timestamps, which
// is what makes the unit tests deterministic.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>

#include "service/metrics.hpp"

namespace fadesched::service {

/// Admission class of a request: kWarm = its fingerprint is already
/// cached (cheap to serve), kCold = it will need a full engine build.
enum class RequestClass { kWarm, kCold };

struct OverloadOptions {
  /// CoDel target: the queue delay the controller defends. 0 disables
  /// the controller entirely (no shedding).
  double queue_delay_target_ms = 5.0;
  /// Delay must exceed the target continuously this long before the
  /// service counts as overloaded.
  double interval_ms = 100.0;
  /// EWMA smoothing for the delay estimate (per observation).
  double ewma_alpha = 0.2;
  /// Shed hints: retry_after = clamp(2 × EWMA, min, max).
  double retry_after_min_ms = 10.0;
  double retry_after_max_ms = 250.0;

  /// Throws util::FatalError on a negative target, a non-positive
  /// interval, alpha outside (0, 1], or retry-after bounds not ordered
  /// 0 <= min <= max. NaN fails every check.
  void Validate() const;
};

struct AdmitDecision {
  bool admit = true;
  /// Backoff hint attached to the shed response (ms); 0 when admitted.
  double retry_after_ms = 0.0;
};

class OverloadController {
 public:
  using Clock = std::chrono::steady_clock;

  /// `metrics` may be null; when given, the controller keeps the
  /// queue_delay_ewma_us gauge current (shed counters belong to the
  /// batcher, which knows the request class).
  explicit OverloadController(OverloadOptions options,
                              ServiceMetrics* metrics = nullptr);

  /// One dequeue observation: how long the request sat in the queue.
  /// Called by batcher workers; drives the overload state.
  void ObserveQueueDelay(double seconds, Clock::time_point now);

  /// Admission check at Submit time. `queue_depth` is the depth the
  /// request would join; depth 0 resets the overload state (an empty
  /// queue is never overloaded).
  AdmitDecision Admit(RequestClass cls, std::size_t queue_depth,
                      Clock::time_point now);

  /// Hint for sheds decided elsewhere (the hard queue-full path).
  [[nodiscard]] double RetryAfterMs() const;

  [[nodiscard]] bool Overloaded() const;
  [[nodiscard]] double QueueDelayEwmaSeconds() const;
  [[nodiscard]] const OverloadOptions& Options() const { return options_; }

 private:
  [[nodiscard]] double RetryAfterMsLocked() const;
  void ResetLocked();

  OverloadOptions options_;
  ServiceMetrics* metrics_;

  mutable std::mutex mutex_;
  double ewma_seconds_ = 0.0;
  bool have_ewma_ = false;
  bool overloaded_ = false;
  bool above_target_ = false;
  Clock::time_point first_above_{};
};

}  // namespace fadesched::service
