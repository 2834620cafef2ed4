// OverloadController unit tests. Time is passed in explicitly, so every
// CoDel interval transition is pinned deterministically — no sleeps, no
// wall clock.
#include "service/overload.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "util/error.hpp"

namespace fadesched::service {
namespace {

using Clock = OverloadController::Clock;
using std::chrono::milliseconds;

OverloadOptions FastOptions() {
  OverloadOptions options;
  options.queue_delay_target_ms = 5.0;
  options.interval_ms = 100.0;
  options.ewma_alpha = 1.0;  // EWMA == last sample: exact assertions
  return options;
}

Clock::time_point T0() { return Clock::time_point{} + milliseconds(1000); }

/// Feeds `count` samples of `delay_ms` spaced `step_ms` apart starting at
/// `start`; returns the time just after the last sample.
Clock::time_point Feed(OverloadController& ctl, double delay_ms,
                       int count, Clock::time_point start,
                       int step_ms = 30) {
  Clock::time_point now = start;
  for (int i = 0; i < count; ++i) {
    ctl.ObserveQueueDelay(delay_ms * 1e-3, now);
    now += milliseconds(step_ms);
  }
  return now;
}

TEST(OverloadControllerTest, BelowTargetNeverSheds) {
  OverloadController ctl(FastOptions());
  const auto end = Feed(ctl, 2.0, 50, T0());
  EXPECT_FALSE(ctl.Overloaded());
  EXPECT_TRUE(ctl.Admit(RequestClass::kCold, 10, end).admit);
}

TEST(OverloadControllerTest, SingleSpikeDoesNotTripOverload) {
  OverloadController ctl(FastOptions());
  // One above-target sample arms the timer but the interval has not
  // elapsed; the next below-target sample disarms it.
  ctl.ObserveQueueDelay(0.050, T0());
  EXPECT_FALSE(ctl.Overloaded());
  ctl.ObserveQueueDelay(0.001, T0() + milliseconds(30));
  EXPECT_FALSE(ctl.Overloaded());
}

TEST(OverloadControllerTest, SustainedDelayTripsAfterInterval) {
  OverloadController ctl(FastOptions());
  const auto end = Feed(ctl, 20.0, 5, T0());  // 120 ms above target
  EXPECT_TRUE(ctl.Overloaded());
  const AdmitDecision cold = ctl.Admit(RequestClass::kCold, 4, end);
  EXPECT_FALSE(cold.admit);
  EXPECT_GT(cold.retry_after_ms, 0.0);
}

TEST(OverloadControllerTest, ColdPolicyStillAdmitsWarm) {
  OverloadController ctl(FastOptions());
  const auto end = Feed(ctl, 20.0, 5, T0());
  ASSERT_TRUE(ctl.Overloaded());
  EXPECT_TRUE(ctl.Admit(RequestClass::kWarm, 4, end).admit);
  EXPECT_FALSE(ctl.Admit(RequestClass::kCold, 4, end).admit);
}

TEST(OverloadControllerTest, BelowTargetSampleClearsOverload) {
  OverloadController ctl(FastOptions());
  auto now = Feed(ctl, 20.0, 5, T0());
  ASSERT_TRUE(ctl.Overloaded());
  ctl.ObserveQueueDelay(0.001, now);
  EXPECT_FALSE(ctl.Overloaded());
  EXPECT_TRUE(ctl.Admit(RequestClass::kCold, 4, now).admit);
}

TEST(OverloadControllerTest, EmptyQueueResetsStaleVerdict) {
  OverloadController ctl(FastOptions());
  const auto end = Feed(ctl, 20.0, 5, T0());
  ASSERT_TRUE(ctl.Overloaded());
  // Idle: the first request after the queue empties must be admitted no
  // matter what the stale history says.
  EXPECT_TRUE(ctl.Admit(RequestClass::kCold, 0, end).admit);
  EXPECT_FALSE(ctl.Overloaded());
  EXPECT_EQ(ctl.QueueDelayEwmaSeconds(), 0.0);
}

TEST(OverloadControllerTest, RetryAfterTracksEwmaWithinClamp) {
  OverloadOptions options = FastOptions();
  options.retry_after_min_ms = 10.0;
  options.retry_after_max_ms = 250.0;
  OverloadController ctl(options);
  // alpha = 1 → EWMA == last sample. 2×40 ms = 80 ms, inside the clamp.
  Feed(ctl, 40.0, 5, T0());
  EXPECT_DOUBLE_EQ(ctl.RetryAfterMs(), 80.0);
  // 2×1000 ms clamps at max.
  Feed(ctl, 1000.0, 1, T0() + milliseconds(500));
  EXPECT_DOUBLE_EQ(ctl.RetryAfterMs(), 250.0);
  // 2×1 ms clamps at min.
  Feed(ctl, 1.0, 1, T0() + milliseconds(600));
  EXPECT_DOUBLE_EQ(ctl.RetryAfterMs(), 10.0);
}

TEST(OverloadControllerTest, ZeroTargetDisablesController) {
  OverloadOptions options = FastOptions();
  options.queue_delay_target_ms = 0.0;
  OverloadController ctl(options);
  const auto end = Feed(ctl, 1000.0, 20, T0());
  EXPECT_FALSE(ctl.Overloaded());
  EXPECT_TRUE(ctl.Admit(RequestClass::kCold, 1000, end).admit);
}

TEST(OverloadControllerTest, EwmaSmoothsSamples) {
  OverloadOptions options = FastOptions();
  options.ewma_alpha = 0.5;
  OverloadController ctl(options);
  ctl.ObserveQueueDelay(0.010, T0());
  ctl.ObserveQueueDelay(0.020, T0() + milliseconds(10));
  // First sample seeds; then 10 + 0.5·(20−10) = 15 ms.
  EXPECT_DOUBLE_EQ(ctl.QueueDelayEwmaSeconds(), 0.015);
}

TEST(OverloadOptionsTest, ValidateRejectsBadConfigs) {
  {
    OverloadOptions bad = FastOptions();
    bad.queue_delay_target_ms = -1.0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    OverloadOptions bad = FastOptions();
    bad.interval_ms = 0.0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    OverloadOptions bad = FastOptions();
    bad.ewma_alpha = 0.0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    OverloadOptions bad = FastOptions();
    bad.retry_after_max_ms = bad.retry_after_min_ms - 1.0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  // NaN compares false with everything, so each check must be written to
  // fail on it: a NaN target or interval would switch shedding off, and a
  // NaN retry-after bound would break std::clamp's precondition.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double OverloadOptions::*field :
       {&OverloadOptions::queue_delay_target_ms, &OverloadOptions::interval_ms,
        &OverloadOptions::retry_after_min_ms,
        &OverloadOptions::retry_after_max_ms}) {
    OverloadOptions bad = FastOptions();
    bad.*field = nan;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
}

}  // namespace
}  // namespace fadesched::service
