#include "sched/feedback.hpp"

#include <gtest/gtest.h>

#include "channel/params.hpp"
#include "net/link_set.hpp"
#include "util/check.hpp"

namespace fadesched::sched {
namespace {

net::LinkSet IsolatedLinks(std::size_t count, double spacing) {
  // Unit-length links spaced far apart: cross interference is ~spacing^-α,
  // negligible against the unit-mean direct power.
  net::LinkSet links;
  for (std::size_t i = 0; i < count; ++i) {
    const double x = static_cast<double>(i) * spacing;
    links.Add(net::Link{{x, 0.0}, {x, 1.0}, 1.0});
  }
  return links;
}

TEST(FeedbackTest, EmptyScheduleDeliversVacuously) {
  const net::LinkSet links = IsolatedLinks(3, 1e6);
  const channel::ChannelParams params;
  const auto result = RunFeedbackSchedule(links, params, {});
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(result.slots_used, 0u);
  EXPECT_EQ(result.delivered_links, 0u);
  EXPECT_DOUBLE_EQ(result.delivered_rate_fraction, 1.0);
}

TEST(FeedbackTest, LoneLinkWithoutNoiseDeliversInSlotZero) {
  const net::LinkSet links = IsolatedLinks(1, 1.0);
  channel::ChannelParams params;
  params.noise_power = 0.0;  // no interference at all => guaranteed decode
  const auto result = RunFeedbackSchedule(links, params, {0});
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].delivered);
  EXPECT_EQ(result.outcomes[0].attempts, 1u);
  EXPECT_EQ(result.outcomes[0].delivery_slot, 0u);
  EXPECT_EQ(result.slots_used, 1u);
  EXPECT_DOUBLE_EQ(result.delivered_rate_fraction, 1.0);
}

TEST(FeedbackTest, WellSeparatedLinksAllDeliverImmediately) {
  const net::LinkSet links = IsolatedLinks(4, 1e6);
  const channel::ChannelParams params;
  const auto result = RunFeedbackSchedule(links, params, {0, 1, 2, 3});
  EXPECT_EQ(result.delivered_links, 4u);
  EXPECT_EQ(result.blacklisted_links, 0u);
  EXPECT_DOUBLE_EQ(result.delivered_rate_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result.delay_slots.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.attempts_per_link.Mean(), 1.0);
}

TEST(FeedbackTest, HopelessLinkIsBlacklistedWithExponentialBackoff) {
  const net::LinkSet links = IsolatedLinks(1, 1.0);
  channel::ChannelParams params;
  params.noise_power = 1e12;  // unit mean power cannot beat this noise
  FeedbackOptions options;
  options.max_attempts = 4;
  const auto result = RunFeedbackSchedule(links, params, {0}, options);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].delivered);
  EXPECT_TRUE(result.outcomes[0].blacklisted);
  EXPECT_EQ(result.outcomes[0].attempts, options.max_attempts);
  // Attempts land at slots 0, 1, 3, 7 (gaps 1, 2, 4), so the last active
  // slot is 7 — the observable signature of the exponential backoff.
  EXPECT_EQ(result.slots_used, 8u);
  EXPECT_EQ(result.blacklisted_links, 1u);
  EXPECT_DOUBLE_EQ(result.delivered_rate_fraction, 0.0);
}

TEST(FeedbackTest, BackoffCapBoundsRetryGaps) {
  const net::LinkSet links = IsolatedLinks(1, 1.0);
  channel::ChannelParams params;
  params.noise_power = 1e12;
  FeedbackOptions options;
  options.max_attempts = 5;
  options.backoff_cap = 2;
  const auto result = RunFeedbackSchedule(links, params, {0}, options);
  // Slots 0, 1, 3, 5, 7: the gap saturates at the cap of 2.
  EXPECT_EQ(result.slots_used, 8u);
  EXPECT_TRUE(result.outcomes[0].blacklisted);
}

TEST(FeedbackTest, SlotBudgetExhaustionLeavesLinkPending) {
  const net::LinkSet links = IsolatedLinks(1, 1.0);
  channel::ChannelParams params;
  params.noise_power = 1e12;
  FeedbackOptions options;
  options.max_attempts = 100;
  options.max_slots = 4;  // attempts fire at slots 0, 1, 3 before time runs out
  const auto result = RunFeedbackSchedule(links, params, {0}, options);
  EXPECT_FALSE(result.outcomes[0].delivered);
  EXPECT_FALSE(result.outcomes[0].blacklisted);
  EXPECT_EQ(result.outcomes[0].attempts, 3u);
  EXPECT_EQ(result.delivered_links, 0u);
  EXPECT_EQ(result.blacklisted_links, 0u);
}

TEST(FeedbackTest, SameSeedIsBitReproducible) {
  // A dense clump of mutually interfering links: outcomes are genuinely
  // random draws, so agreement across runs is a determinism statement.
  net::LinkSet links;
  for (int i = 0; i < 8; ++i) {
    const double x = 0.3 * i;
    links.Add(net::Link{{x, 0.0}, {x, 1.0}, 1.0});
  }
  const channel::ChannelParams params;
  net::Schedule schedule{0, 1, 2, 3, 4, 5, 6, 7};
  FeedbackOptions options;
  options.seed = 1234;
  const auto a = RunFeedbackSchedule(links, params, schedule, options);
  const auto b = RunFeedbackSchedule(links, params, schedule, options);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered);
    EXPECT_EQ(a.outcomes[i].blacklisted, b.outcomes[i].blacklisted);
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts);
    EXPECT_EQ(a.outcomes[i].delivery_slot, b.outcomes[i].delivery_slot);
  }
  EXPECT_EQ(a.slots_used, b.slots_used);
  EXPECT_DOUBLE_EQ(a.delivered_rate_fraction, b.delivered_rate_fraction);
}

TEST(FeedbackTest, DeliveredRateFractionWeighsByRate) {
  net::LinkSet links;
  links.Add(net::Link{{0.0, 0.0}, {0.0, 1e-4}, 3.0});  // mean power 1e12
  links.Add(net::Link{{1e6, 0.0}, {1e6, 1.0}, 1.0});   // mean power 1
  channel::ChannelParams params;
  params.noise_power = 1e3;  // trivial for link 0, hopeless for link 1
  FeedbackOptions options;
  options.max_attempts = 3;
  const auto result = RunFeedbackSchedule(links, params, {0, 1}, options);
  EXPECT_TRUE(result.outcomes[0].delivered);
  EXPECT_TRUE(result.outcomes[1].blacklisted);
  EXPECT_DOUBLE_EQ(result.delivered_rate_fraction, 0.75);  // 3 / (3 + 1)
}

TEST(FeedbackTest, RejectsInvalidOptionsAndSchedule) {
  const net::LinkSet links = IsolatedLinks(2, 1e6);
  const channel::ChannelParams params;
  FeedbackOptions options;
  options.max_slots = 0;
  EXPECT_THROW(RunFeedbackSchedule(links, params, {0}, options),
               util::CheckFailure);
  options = FeedbackOptions{};
  options.max_attempts = 0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  options = FeedbackOptions{};
  options.backoff_base = 0.5;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  options = FeedbackOptions{};
  options.backoff_factor = 0.9;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  options = FeedbackOptions{};
  options.backoff_cap = 0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  options = FeedbackOptions{};
  options.fading.nakagami_m = 0.0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  // Schedule entries must index into the link set.
  EXPECT_THROW(RunFeedbackSchedule(links, params, {5}), util::CheckFailure);
}

// A repeated id used to interfere with itself in every slot it transmitted.
TEST(FeedbackTest, DuplicateScheduleIdRejected) {
  const net::LinkSet links = IsolatedLinks(2, 1e6);
  const channel::ChannelParams params;
  EXPECT_THROW(RunFeedbackSchedule(links, params, {1, 1}), util::CheckFailure);
  EXPECT_THROW(RunFeedbackSchedule(links, params, {0, 1, 0}),
               util::CheckFailure);
}

}  // namespace
}  // namespace fadesched::sched
