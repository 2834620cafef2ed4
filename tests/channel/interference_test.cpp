#include "channel/interference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::channel {
namespace {

net::LinkSet TwoLinkLine(double gap) {
  // Link 0: (0,0)->(1,0); link 1: (gap,0)->(gap+1,0).
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{gap, 0}, {gap + 1, 0}, 1.0});
  return links;
}

TEST(InterferenceCalculatorTest, SelfFactorIsZero) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  EXPECT_DOUBLE_EQ(calc.Factor(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(calc.Factor(1, 1), 0.0);
}

TEST(InterferenceCalculatorTest, FactorMatchesFormula17) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  params.alpha = 3.0;
  params.gamma_th = 2.0;
  const InterferenceCalculator calc(links, params);
  // Sender 1 at x=10, receiver 0 at x=1: d_ij = 9, d_jj = 1.
  const double expected = std::log1p(2.0 * std::pow(1.0 / 9.0, 3.0));
  EXPECT_NEAR(calc.Factor(1, 0), expected, 1e-15);
  // Sender 0 at x=0, receiver 1 at x=11: d_ij = 11, d_jj = 1.
  const double expected_10 = std::log1p(2.0 * std::pow(1.0 / 11.0, 3.0));
  EXPECT_NEAR(calc.Factor(0, 1), expected_10, 1e-15);
}

TEST(InterferenceCalculatorTest, FactorDecreasesWithDistance) {
  ChannelParams params;
  double prev = 1e9;
  for (double gap : {5.0, 10.0, 20.0, 40.0}) {
    const net::LinkSet links = TwoLinkLine(gap);
    const InterferenceCalculator calc(links, params);
    const double f = calc.Factor(1, 0);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(InterferenceCalculatorTest, FactorGrowsWithVictimLength) {
  // Longer victim links are more fragile: d_jj ↑ ⇒ f ↑.
  ChannelParams params;
  net::LinkSet short_victim;
  short_victim.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  short_victim.Add(net::Link{{50, 0}, {51, 0}, 1.0});
  net::LinkSet long_victim;
  long_victim.Add(net::Link{{0, 0}, {5, 0}, 1.0});
  long_victim.Add(net::Link{{50, 0}, {51, 0}, 1.0});
  const InterferenceCalculator calc_short(short_victim, params);
  const InterferenceCalculator calc_long(long_victim, params);
  EXPECT_GT(calc_long.Factor(1, 0), calc_short.Factor(1, 0));
}

TEST(InterferenceCalculatorTest, FactorGrowsWithGammaTh) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams lo;
  lo.gamma_th = 0.5;
  ChannelParams hi;
  hi.gamma_th = 4.0;
  EXPECT_GT(InterferenceCalculator(links, hi).Factor(1, 0),
            InterferenceCalculator(links, lo).Factor(1, 0));
}

TEST(InterferenceCalculatorTest, HigherAlphaShrinksFarInterference) {
  const net::LinkSet links = TwoLinkLine(10.0);  // d_ij/d_jj = 9 > 1
  ChannelParams lo;
  lo.alpha = 2.5;
  ChannelParams hi;
  hi.alpha = 5.0;
  EXPECT_LT(InterferenceCalculator(links, hi).Factor(1, 0),
            InterferenceCalculator(links, lo).Factor(1, 0));
}

TEST(InterferenceCalculatorTest, FactorFromPointMatchesFactor) {
  const net::LinkSet links = TwoLinkLine(7.0);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  EXPECT_DOUBLE_EQ(calc.FactorFromPoint(links.Sender(1), 0),
                   calc.Factor(1, 0));
}

TEST(InterferenceCalculatorTest, TinyFarFactorStaysPositive) {
  // log1p keeps far-field factors positive rather than flushing to zero.
  const net::LinkSet links = TwoLinkLine(1e6);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  EXPECT_GT(calc.Factor(1, 0), 0.0);
}

TEST(InterferenceCalculatorTest, CoincidentSenderAndReceiverRejected) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{1, 0}, {2, 0}, 1.0});  // sender 1 on receiver 0
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  EXPECT_THROW((void)calc.Factor(1, 0), util::CheckFailure);
}

TEST(InterferenceCalculatorTest, SumFactorSkipsVictim) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  const std::vector<net::LinkId> schedule{0, 1};
  EXPECT_DOUBLE_EQ(calc.SumFactor(schedule, 0), calc.Factor(1, 0));
  EXPECT_DOUBLE_EQ(calc.SumFactor(schedule, 1), calc.Factor(0, 1));
}

TEST(InterferenceMatrixTest, MatchesCalculatorEverywhere) {
  rng::Xoshiro256 gen(5);
  const net::LinkSet links = net::MakeUniformScenario(40, {}, gen);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  const InterferenceMatrix matrix(links, params);
  ASSERT_EQ(matrix.Size(), links.Size());
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_DOUBLE_EQ(matrix.Factor(i, j), calc.Factor(i, j));
    }
  }
}

TEST(InterferenceMatrixTest, SumFactorMatchesCalculator) {
  rng::Xoshiro256 gen(6);
  const net::LinkSet links = net::MakeUniformScenario(30, {}, gen);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  const InterferenceMatrix matrix(links, params);
  std::vector<net::LinkId> schedule(links.Size());
  std::iota(schedule.begin(), schedule.end(), net::LinkId{0});
  for (net::LinkId j = 0; j < links.Size(); ++j) {
    EXPECT_NEAR(matrix.SumFactor(schedule, j), calc.SumFactor(schedule, j),
                1e-12);
  }
}

TEST(InterferenceCalculatorTest, InvalidParamsRejectedAtConstruction) {
  const net::LinkSet links = TwoLinkLine(5.0);
  ChannelParams params;
  params.alpha = 1.0;
  EXPECT_THROW(InterferenceCalculator(links, params), util::CheckFailure);
}

}  // namespace
}  // namespace fadesched::channel
