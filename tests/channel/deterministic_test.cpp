#include "channel/deterministic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/interference.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::channel {
namespace {

net::LinkSet TwoLinkLine(double gap) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{gap, 0}, {gap + 1, 0}, 1.0});
  return links;
}

TEST(DeterministicSinrTest, SelfAffectanceIsZero) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  EXPECT_DOUBLE_EQ(sinr.Affectance(0, 0), 0.0);
}

TEST(DeterministicSinrTest, AffectanceMatchesFormula) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  params.alpha = 3.0;
  params.gamma_th = 2.0;
  const DeterministicSinr sinr(links, params);
  // a_{1,0} = γ (d_00 / d_10)^α = 2 · (1/9)³.
  EXPECT_NEAR(sinr.Affectance(1, 0), 2.0 * std::pow(1.0 / 9.0, 3.0), 1e-15);
}

TEST(DeterministicSinrTest, MeanSinrInverseToAffectance) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const std::vector<net::LinkId> schedule{0, 1};
  EXPECT_NEAR(sinr.MeanSinr(schedule, 0),
              params.gamma_th / sinr.SumAffectance(schedule, 0), 1e-12);
}

TEST(DeterministicSinrTest, NoInterferenceGivesInfiniteSinr) {
  const net::LinkSet links = TwoLinkLine(10.0);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const std::vector<net::LinkId> lone{0};
  EXPECT_TRUE(std::isinf(sinr.MeanSinr(lone, 0)));
  EXPECT_TRUE(sinr.LinkDecodes(lone, 0));
}

TEST(DeterministicSinrTest, DecodeIffAffectanceAtMostOne) {
  rng::Xoshiro256 gen(1);
  const net::LinkSet links = net::MakeUniformScenario(30, {}, gen);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  std::vector<net::LinkId> schedule;
  for (net::LinkId i = 0; i < links.Size(); ++i) schedule.push_back(i);
  for (net::LinkId j : schedule) {
    EXPECT_EQ(sinr.LinkDecodes(schedule, j),
              sinr.SumAffectance(schedule, j) <= 1.0 + 1e-12);
  }
}

TEST(DeterministicSinrTest, DeterministicLaxerThanFading) {
  // The fading test is strictly stronger: any Corollary-3.1-informed link
  // also decodes in the deterministic model (f ≤ γ_ε ≈ 0.01 ⇒ a ≤ ~0.01).
  rng::Xoshiro256 gen(2);
  const net::LinkSet links = net::MakeUniformScenario(60, {}, gen);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const InterferenceCalculator calc(links, params);
  std::vector<net::LinkId> schedule;
  for (net::LinkId i = 0; i < links.Size(); i += 2) schedule.push_back(i);
  for (net::LinkId j : schedule) {
    if (calc.SumFactor(schedule, j) <= params.GammaEpsilon()) {
      EXPECT_TRUE(sinr.LinkDecodes(schedule, j));
    }
  }
}

TEST(DeterministicSinrTest, FactorIsLogOnePlusAffectance) {
  // f_ij = ln(1 + a_ij) — the bridge between the two models.
  rng::Xoshiro256 gen(3);
  const net::LinkSet links = net::MakeUniformScenario(20, {}, gen);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const InterferenceCalculator calc(links, params);
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_NEAR(calc.Factor(i, j), std::log1p(sinr.Affectance(i, j)),
                  1e-12);
    }
  }
}

TEST(DeterministicSinrTest, ScheduleFeasibleChecksAllLinks) {
  const net::LinkSet links = TwoLinkLine(1.2);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const std::vector<net::LinkId> schedule{0, 1};
  // Overlapping links: affectance >> 1 in at least one direction.
  EXPECT_FALSE(sinr.ScheduleIsFeasible(schedule));
  const std::vector<net::LinkId> lone{1};
  EXPECT_TRUE(sinr.ScheduleIsFeasible(lone));
}

TEST(DeterministicSinrTest, CoincidentSenderReceiverRejected) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{1, 0}, {2, 0}, 1.0});
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  EXPECT_THROW((void)sinr.Affectance(1, 0), util::CheckFailure);
}

}  // namespace
}  // namespace fadesched::channel
