#include "sched/greedy.hpp"

#include <gtest/gtest.h>

#include <set>

#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "channel/simd_dispatch.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/ldp.hpp"
#include "util/check.hpp"

namespace fadesched::sched {
namespace {

channel::ChannelParams PaperParams() {
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.01;
  return params;
}

TEST(FadingGreedyTest, EmptyInstance) {
  const auto result =
      FadingGreedyScheduler().Schedule(net::LinkSet{}, PaperParams());
  EXPECT_TRUE(result.schedule.empty());
}

TEST(FadingGreedyTest, SingleLinkScheduled) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {5, 0}, 2.0});
  const auto result = FadingGreedyScheduler().Schedule(links, PaperParams());
  EXPECT_EQ(result.schedule, net::Schedule{0});
}

TEST(FadingGreedyTest, CommittedSenderOnARejectedReceiverThrows) {
  // Link 1 is rejected: link 0's sender is 1 from its receiver, its own
  // sender 100. Link 2 is then committed, with its sender `shift` from
  // link 1's receiver. At shift 0 that term is a domain error on every
  // backend and tier, as it would be were link 1's receiver still read.
  const auto layout = [](double shift) {
    net::LinkSet links;
    links.Add(net::Link{{0, 0}, {0, 0.01}, 3.0});
    links.Add(net::Link{{-1, -100}, {-1, 0}, 2.0});
    links.Add(net::Link{{-1 + shift, 0}, {-1, -0.01}, 1.0});
    return links;
  };
  std::vector<channel::SimdLevel> levels{channel::SimdLevel::kScalar};
  for (const channel::SimdLevel level :
       {channel::SimdLevel::kAvx2, channel::SimdLevel::kAvx512}) {
    if (channel::ResolveSimdLevel(level) == level) levels.push_back(level);
  }
  for (const channel::FactorBackend backend :
       {channel::FactorBackend::kTables, channel::FactorBackend::kCalculator}) {
    FadingGreedyOptions options;
    options.interference.backend = backend;
    const FadingGreedyScheduler greedy(options);
    for (const channel::SimdLevel level : levels) {
      const channel::ScopedSimdLevel pin(level);
      EXPECT_THROW(greedy.Schedule(layout(0.0), PaperParams()),
                   util::CheckFailure)
          << static_cast<int>(backend) << " " << SimdLevelName(level);
      EXPECT_EQ(greedy.Schedule(layout(1e-3), PaperParams()).schedule,
                (net::Schedule{0, 2}))
          << static_cast<int>(backend) << " " << SimdLevelName(level);
    }
  }
}

TEST(FadingGreedyTest, AlwaysFeasibleByConstruction) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rng::Xoshiro256 gen(seed);
    const net::LinkSet links = net::MakeUniformScenario(250, {}, gen);
    const auto params = PaperParams();
    const auto result = FadingGreedyScheduler().Schedule(links, params);
    const channel::InterferenceCalculator calc(links, params);
    EXPECT_TRUE(channel::ScheduleIsFeasible(calc, result.schedule))
        << "seed=" << seed;
  }
}

TEST(FadingGreedyTest, FeasibleOnWeightedInstances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    rng::Xoshiro256 gen(seed);
    const net::LinkSet links = net::MakeWeightedScenario(200, {}, gen);
    const auto params = PaperParams();
    const auto result = FadingGreedyScheduler().Schedule(links, params);
    const channel::InterferenceCalculator calc(links, params);
    EXPECT_TRUE(channel::ScheduleIsFeasible(calc, result.schedule));
  }
}

TEST(FadingGreedyTest, MaximalSchedule) {
  // No unscheduled link can be added without breaking feasibility —
  // greedy only rejects links that genuinely do not fit *at the time*;
  // since interference only grows, rejected-now is rejected-forever, so
  // the final schedule is maximal.
  rng::Xoshiro256 gen(20);
  const net::LinkSet links = net::MakeUniformScenario(150, {}, gen);
  const auto params = PaperParams();
  const auto result = FadingGreedyScheduler().Schedule(links, params);
  const channel::InterferenceCalculator calc(links, params);
  const std::set<net::LinkId> chosen(result.schedule.begin(),
                                     result.schedule.end());
  for (net::LinkId candidate = 0; candidate < links.Size(); ++candidate) {
    if (chosen.count(candidate)) continue;
    net::Schedule extended = result.schedule;
    extended.push_back(candidate);
    EXPECT_FALSE(channel::ScheduleIsFeasible(calc, extended))
        << "link " << candidate << " could have been added";
  }
}

TEST(FadingGreedyTest, PrefersHighRateLinks) {
  // Two isolated clusters; within each, only one link can win. The high
  // rate link must be chosen over the overlapping low-rate one.
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {5, 0}, 1.0});
  links.Add(net::Link{{0, 1}, {5, 1}, 9.0});  // same area, higher rate
  const auto result = FadingGreedyScheduler().Schedule(links, PaperParams());
  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_EQ(result.schedule[0], 1u);
}

TEST(FadingGreedyTest, BeatsLdpOnPaperScenario) {
  // Not a theorem — an empirical regression anchor: greedy, which reasons
  // about exact budgets, should out-schedule the grid-quantized LDP.
  rng::Xoshiro256 gen(21);
  const net::LinkSet links = net::MakeUniformScenario(300, {}, gen);
  const auto params = PaperParams();
  const auto greedy = FadingGreedyScheduler().Schedule(links, params);
  const auto ldp = LdpScheduler().Schedule(links, params);
  EXPECT_GE(greedy.claimed_rate, ldp.claimed_rate);
}

TEST(FadingGreedyTest, Deterministic) {
  rng::Xoshiro256 gen(22);
  const net::LinkSet links = net::MakeUniformScenario(100, {}, gen);
  const FadingGreedyScheduler greedy;
  EXPECT_EQ(greedy.Schedule(links, PaperParams()).schedule,
            greedy.Schedule(links, PaperParams()).schedule);
}

}  // namespace
}  // namespace fadesched::sched
