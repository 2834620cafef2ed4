#include "power/assignment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "net/scenario.hpp"
#include "net/scenario_io.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"
#include "sim/monte_carlo.hpp"
#include "util/check.hpp"

namespace fadesched::power {
namespace {

channel::ChannelParams PaperParams() {
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.05;
  return params;
}

net::LinkSet MixedLengths() {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {2, 0}, 1.0});
  links.Add(net::Link{{100, 0}, {108, 0}, 1.0});
  links.Add(net::Link{{200, 0}, {216, 0}, 1.0});
  return links;
}

TEST(PolicyNameTest, AllNamesDistinct) {
  EXPECT_STREQ(PolicyName(PowerPolicy::kUniform), "uniform");
  EXPECT_STREQ(PolicyName(PowerPolicy::kLinear), "linear");
  EXPECT_STREQ(PolicyName(PowerPolicy::kSquareRoot), "sqrt");
}

TEST(AssignPowerTest, UniformClearsOverrides) {
  const net::LinkSet assigned =
      AssignPower(MixedLengths(), PaperParams(), PowerPolicy::kUniform, 2.0);
  EXPECT_TRUE(assigned.HasUniformTxPower());
}

TEST(AssignPowerTest, LinearCompensatesPathLossExactly) {
  // P_i ∝ d^α: the received signal mean P_i·d^{-α} is equal across links.
  const auto params = PaperParams();
  const net::LinkSet links = MixedLengths();
  const net::LinkSet assigned =
      AssignPower(links, params, PowerPolicy::kLinear, 4.0);
  const double received_0 =
      assigned.TxPower(0) * std::pow(assigned.Length(0), -params.alpha);
  const double received_2 =
      assigned.TxPower(2) * std::pow(assigned.Length(2), -params.alpha);
  EXPECT_NEAR(received_0, received_2, 1e-12);
}

TEST(AssignPowerTest, LongestLinkGetsMaxPower) {
  for (PowerPolicy policy :
       {PowerPolicy::kLinear, PowerPolicy::kSquareRoot}) {
    const net::LinkSet assigned =
        AssignPower(MixedLengths(), PaperParams(), policy, 7.5);
    EXPECT_DOUBLE_EQ(assigned.TxPower(2), 7.5);
    EXPECT_LT(assigned.TxPower(0), 7.5);
  }
}

TEST(AssignPowerTest, SqrtLiesBetweenUniformAndLinear) {
  const net::LinkSet linear =
      AssignPower(MixedLengths(), PaperParams(), PowerPolicy::kLinear, 1.0);
  const net::LinkSet sqrt_p = AssignPower(MixedLengths(), PaperParams(),
                                          PowerPolicy::kSquareRoot, 1.0);
  // Shortest link: linear punishes it hardest, sqrt in between.
  EXPECT_LT(linear.TxPower(0), sqrt_p.TxPower(0));
  EXPECT_LT(sqrt_p.TxPower(0), 1.0);
}

TEST(AssignPowerTest, InvalidMaxPowerRejected) {
  EXPECT_THROW(AssignPower(MixedLengths(), PaperParams(),
                           PowerPolicy::kLinear, 0.0),
               util::CheckFailure);
}

TEST(AssignPowerTest, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(AssignPower(net::LinkSet{}, PaperParams(),
                          PowerPolicy::kLinear, 1.0)
                  .Empty());
}

TEST(PowerModelTest, TxPowerRatioReflectsAssignment) {
  const auto params = PaperParams();
  const net::LinkSet uniform =
      AssignPower(MixedLengths(), params, PowerPolicy::kUniform, 1.0);
  EXPECT_DOUBLE_EQ(uniform.TxPowerRatio(params.tx_power), 1.0);
  const net::LinkSet linear =
      AssignPower(MixedLengths(), params, PowerPolicy::kLinear, 1.0);
  // lengths 2 and 16: ratio (16/2)^3 = 512.
  EXPECT_NEAR(linear.TxPowerRatio(params.tx_power), 512.0, 1e-9);
}

TEST(PowerModelTest, FactorUsesPowerRatio) {
  // Doubling the interferer's power must increase its factor; doubling
  // the victim's own power must decrease it.
  const auto params = PaperParams();
  net::LinkSet base;
  base.Add(net::Link{{0, 0}, {1, 0}, 1.0, 1.0});
  base.Add(net::Link{{10, 0}, {11, 0}, 1.0, 1.0});
  net::LinkSet strong_interferer;
  strong_interferer.Add(net::Link{{0, 0}, {1, 0}, 1.0, 1.0});
  strong_interferer.Add(net::Link{{10, 0}, {11, 0}, 1.0, 4.0});
  net::LinkSet strong_victim;
  strong_victim.Add(net::Link{{0, 0}, {1, 0}, 1.0, 4.0});
  strong_victim.Add(net::Link{{10, 0}, {11, 0}, 1.0, 1.0});
  const channel::InterferenceCalculator calc_base(base, params);
  const channel::InterferenceCalculator calc_interferer(strong_interferer,
                                                        params);
  const channel::InterferenceCalculator calc_victim(strong_victim, params);
  EXPECT_GT(calc_interferer.Factor(1, 0), calc_base.Factor(1, 0));
  EXPECT_LT(calc_victim.Factor(1, 0), calc_base.Factor(1, 0));
}

TEST(PowerModelTest, MonteCarloMatchesClosedFormUnderPowerControl) {
  rng::Xoshiro256 gen(1);
  net::UniformScenarioParams sp;
  sp.region_size = 150.0;
  const auto params = PaperParams();
  const net::LinkSet assigned =
      AssignPower(net::MakeUniformScenario(10, sp, gen), params,
                  PowerPolicy::kSquareRoot, 2.0);
  const channel::InterferenceCalculator calc(assigned, params);
  net::Schedule schedule;
  for (net::LinkId i = 0; i < assigned.Size(); ++i) schedule.push_back(i);
  sim::SimOptions options;
  options.trials = 50000;
  const sim::SimResult result =
      sim::SimulateSchedule(assigned, params, schedule, options);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    EXPECT_NEAR(result.link_success_rate[k],
                channel::SuccessProbability(calc, schedule, schedule[k]),
                0.02)
        << "link " << k;
  }
}

TEST(PowerModelTest, SchedulersStayFeasibleUnderPowerControl) {
  const auto params = PaperParams();
  for (PowerPolicy policy :
       {PowerPolicy::kLinear, PowerPolicy::kSquareRoot}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      rng::Xoshiro256 gen(seed);
      const net::LinkSet assigned = AssignPower(
          net::MakeUniformScenario(150, {}, gen), params, policy, 2.0);
      const channel::InterferenceCalculator calc(assigned, params);
      for (const char* name : {"ldp", "rle", "fading_greedy"}) {
        const auto result =
            sched::MakeScheduler(name)->Schedule(assigned, params);
        EXPECT_TRUE(channel::ScheduleIsFeasible(calc, result.schedule))
            << name << " policy=" << PolicyName(policy) << " seed=" << seed;
      }
    }
  }
}

TEST(PowerModelTest, ScenarioIoRoundTripsPowerColumn) {
  const auto params = PaperParams();
  const net::LinkSet assigned =
      AssignPower(MixedLengths(), params, PowerPolicy::kSquareRoot, 3.0);
  const net::LinkSet parsed =
      net::ParseLinkCsv(net::ToCsv(assigned).ToString());
  ASSERT_EQ(parsed.Size(), assigned.Size());
  for (net::LinkId i = 0; i < assigned.Size(); ++i) {
    EXPECT_NEAR(parsed.TxPower(i), assigned.TxPower(i), 1e-9);
  }
}

TEST(PowerModelTest, UniformFilesHaveNoPowerColumn) {
  const net::LinkSet links = MixedLengths();
  const util::CsvTable table = net::ToCsv(links);
  EXPECT_FALSE(table.HasColumn("tx_power"));
}

}  // namespace
}  // namespace fadesched::power
