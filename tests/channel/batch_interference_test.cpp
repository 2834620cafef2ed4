#include "channel/batch_interference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "mathx/ulp.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::channel {
namespace {

// The engine's tables reorder the calculator's floating-point expression,
// so engine factors may differ from it by rounding noise. Anything beyond
// a handful of ULPs would indicate a real formula mismatch.
constexpr std::uint64_t kUlpTolerance = 16;

net::LinkSet RandomLinks(std::uint64_t seed, std::size_t n = 40) {
  rng::Xoshiro256 gen(seed);
  return net::MakeUniformScenario(n, {}, gen);
}

TEST(HalfPowerKernelTest, MatchesPowForQuarterIntegerAlphas) {
  for (double alpha : {2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 5.0, 6.0}) {
    const HalfPowerKernel kernel(alpha);
    for (double d : {0.3, 1.0, 7.5, 123.0, 4096.0}) {
      const double got = kernel.DistPowAlpha(d * d);
      const double want = std::pow(d, alpha);
      EXPECT_LE(mathx::UlpDistance(got, want), kUlpTolerance)
          << "alpha=" << alpha << " d=" << d << " got=" << got
          << " want=" << want;
    }
  }
}

TEST(HalfPowerKernelTest, GenericAlphaFallsBackToPow) {
  const double alpha = 2.87;  // not a quarter integer
  const HalfPowerKernel kernel(alpha);
  for (double d : {0.5, 2.0, 99.0}) {
    EXPECT_DOUBLE_EQ(kernel.DistPowAlpha(d * d),
                     std::pow(d * d, alpha / 2.0));
  }
}

TEST(BatchInterferenceTest, CalculatorBackendIsBitIdentical) {
  const net::LinkSet links = RandomLinks(11);
  ChannelParams params;
  const InterferenceCalculator calc(links, params);
  EngineOptions options;
  options.backend = FactorBackend::kCalculator;
  const InterferenceEngine engine(links, params, options);
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_DOUBLE_EQ(engine.Factor(i, j), calc.Factor(i, j));
    }
  }
}

TEST(BatchInterferenceTest, TablesBackendMatchesCalculatorToTheUlp) {
  const net::LinkSet links = RandomLinks(12);
  ChannelParams params;
  params.alpha = 3.0;
  params.gamma_th = 2.0;
  const InterferenceCalculator calc(links, params);
  const InterferenceEngine engine(links, params, {});
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_LE(mathx::UlpDistance(engine.Factor(i, j), calc.Factor(i, j)),
                kUlpTolerance)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(BatchInterferenceTest, AffectanceMatchesDeterministicSinr) {
  const net::LinkSet links = RandomLinks(14);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const InterferenceEngine engine(links, params, {});
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_LE(
          mathx::UlpDistance(engine.Affectance(i, j), sinr.Affectance(i, j)),
          kUlpTolerance);
    }
  }
}

TEST(BatchInterferenceTest, NoiseFactorIsExactAcrossBackends) {
  const net::LinkSet links = RandomLinks(15);
  ChannelParams params;
  params.noise_power = 1e-6;
  const InterferenceCalculator calc(links, params);
  for (FactorBackend backend :
       {FactorBackend::kCalculator, FactorBackend::kTables}) {
    EngineOptions options;
    options.backend = backend;
    const InterferenceEngine engine(links, params, options);
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_DOUBLE_EQ(engine.NoiseFactor(j), calc.NoiseFactor(j));
    }
  }
}

TEST(BatchInterferenceTest, MeanRxPowerMatchesPathLossFormula) {
  const net::LinkSet links = RandomLinks(16, 20);
  ChannelParams params;
  params.alpha = 3.0;
  const std::vector<net::LinkId> ids = {3, 0, 17, 9, 12};
  const std::size_t m = ids.size();
  const std::vector<double> mean = MeanRxPowerTable(links, params, ids);
  ASSERT_EQ(mean.size(), m * m);
  const HalfPowerKernel kernel(params.alpha);
  for (std::size_t a = 0; a < m; ++a) {
    const net::LinkId i = ids[a];
    for (std::size_t b = 0; b < m; ++b) {
      const net::LinkId j = ids[b];
      const double d = geom::Distance(links.Sender(i), links.Receiver(j));
      const double tx = links.EffectiveTxPower(i, params.tx_power);
      EXPECT_LE(mathx::UlpDistance(mean[a * m + b], tx * std::pow(d, -3.0)),
                kUlpTolerance);
      // Bit-exact against the engine's kTables expression P_i / d^α.
      const double dx = links.Sender(i).x - links.Receiver(j).x;
      const double dy = links.Sender(i).y - links.Receiver(j).y;
      EXPECT_EQ(mean[a * m + b], tx / kernel.DistPowAlpha(dx * dx + dy * dy))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(BatchInterferenceTest, MeanRxPowerRejectsCoincidentSenderReceiver) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{1, 0}, {2, 0}, 1.0});  // sender 1 on receiver 0
  ChannelParams params;
  const std::vector<net::LinkId> ids = {0, 1};
  EXPECT_THROW(static_cast<void>(MeanRxPowerTable(links, params, ids)),
               util::CheckFailure);
  // Either link alone is a valid table.
  const std::vector<net::LinkId> one = {1};
  EXPECT_EQ(MeanRxPowerTable(links, params, one).size(), 1u);
}

TEST(BatchInterferenceTest, MeanRxPowerTableRejectsBadIds) {
  const net::LinkSet links = RandomLinks(16, 5);
  ChannelParams params;
  const std::vector<net::LinkId> out_of_range = {0, 5};
  EXPECT_THROW(static_cast<void>(MeanRxPowerTable(links, params, out_of_range)),
               util::CheckFailure);
  const std::vector<net::LinkId> repeated = {2, 4, 2};
  EXPECT_THROW(static_cast<void>(MeanRxPowerTable(links, params, repeated)),
               util::CheckFailure);
  EXPECT_TRUE(MeanRxPowerTable(links, params, {}).empty());
}

// An interfering sender on a victim's receiver (d² = 0, exactly or by
// underflow) has no defined factor: the tables engine builds, and raises
// only when that pair is queried, for the factor and the affectance
// alike. A sender 1e-150 off the receiver is a defined factor.
TEST(BatchInterferenceTest, CoincidentPositionsThrowOnQuery) {
  struct Layout {
    geom::Vec2 sender;  // link 1's sender; link 0 ends at the origin
    bool coincident;
  };
  for (const Layout layout : {Layout{{0.0, 0.0}, true},
                              Layout{{1e-170, -1e-170}, true},
                              Layout{{1e-150, 0.0}, false}}) {
    net::LinkSet links;
    links.Add({{-10.0, 0.0}, {0.0, 0.0}});
    links.Add({layout.sender, {10.0, 0.0}});
    ChannelParams params;
    const InterferenceEngine tables(links, params);
    EXPECT_GT(tables.Factor(0, 1), 0.0);
    if (layout.coincident) {
      EXPECT_THROW(static_cast<void>(tables.Factor(1, 0)), util::CheckFailure);
      EXPECT_THROW(static_cast<void>(tables.Affectance(1, 0)),
                   util::CheckFailure);
    } else {
      EXPECT_GT(tables.Factor(1, 0), 0.0);
      EXPECT_GT(tables.Affectance(1, 0), 0.0);
    }
  }
}

// Adds `interferer` onto every other receiver: all live, none pruned.
void AddToAll(IncrementalFeasibility& acc, net::LinkId interferer,
              std::size_t n) {
  std::vector<char> alive(n, 1);
  acc.AddAndPrune(interferer, alive, std::numeric_limits<double>::infinity());
}

TEST(IncrementalFeasibilityTest, SumTracksEngineSumFactor) {
  const net::LinkSet links = RandomLinks(21, 30);
  ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  IncrementalFeasibility acc(engine);
  std::vector<net::LinkId> active;
  for (net::LinkId i = 0; i < links.Size(); i += 2) {
    AddToAll(acc, i, links.Size());
    active.push_back(i);
  }
  for (net::LinkId j = 0; j < links.Size(); ++j) {
    EXPECT_NEAR(acc.Sum(j),
                engine.NoiseFactor(j) + engine.SumFactor(active, j), 1e-12);
  }
}

TEST(IncrementalFeasibilityTest, GatedAddSkipsDeadVictims) {
  const net::LinkSet links = RandomLinks(24, 12);
  ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  IncrementalFeasibility acc(engine);
  std::vector<char> alive(links.Size(), 1);
  alive[3] = 0;
  alive[7] = 0;
  const double sum3 = acc.Sum(3);
  const double sum7 = acc.Sum(7);
  // An infinite budget prunes nothing, so only the gate acts.
  acc.AddAndPrune(0, alive, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(acc.Sum(3), sum3);  // dead rows stay stale by contract
  EXPECT_DOUBLE_EQ(acc.Sum(7), sum7);
  EXPECT_GT(acc.Sum(1), engine.NoiseFactor(1));
  EXPECT_EQ(std::count(alive.begin(), alive.end(), 0), 2);
}

TEST(IncrementalFeasibilityTest,
     AddAndPruneClearsExactlyTheReceiversOverBudget) {
  const net::LinkSet links = RandomLinks(27, 45);
  ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  IncrementalFeasibility acc(engine);
  IncrementalFeasibility reference(engine);
  std::vector<char> alive(links.Size(), 1);
  alive[0] = 0;
  AddToAll(reference, 0, links.Size());
  // A budget at the median receiver's sum prunes about half.
  std::vector<double> sums;
  for (net::LinkId j = 1; j < links.Size(); ++j) {
    sums.push_back(reference.Sum(j));
  }
  std::nth_element(sums.begin(), sums.begin() + sums.size() / 2, sums.end());
  const double budget = sums[sums.size() / 2];
  acc.AddAndPrune(0, alive, budget);
  for (net::LinkId j = 1; j < links.Size(); ++j) {
    EXPECT_EQ(acc.Sum(j), reference.Sum(j)) << "receiver " << j;
    EXPECT_EQ(alive[j] != 0, reference.Sum(j) <= budget) << "receiver " << j;
  }
  EXPECT_EQ(alive[0], 0);
}

TEST(IncrementalFeasibilityTest, AnyOverWithPreviewsWithoutCommitting) {
  const net::LinkSet links = RandomLinks(25, 15);
  ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  IncrementalFeasibility acc(engine);
  AddToAll(acc, 0, links.Size());
  const double before = acc.Sum(2);
  const double preview = before + engine.Factor(1, 2);
  const std::vector<net::LinkId> victim{2};
  EXPECT_FALSE(acc.AnyOverWith(1, victim, preview));
  EXPECT_TRUE(acc.AnyOverWith(1, victim, std::nextafter(preview, 0.0)));
  // The victim itself contributes nothing.
  EXPECT_FALSE(acc.AnyOverWith(2, victim, before));
  EXPECT_TRUE(acc.AnyOverWith(2, victim, std::nextafter(before, 0.0)));
  EXPECT_FALSE(acc.AnyOverWith(1, {}, 0.0));
  // No commit happened.
  EXPECT_EQ(acc.Sum(2), before);
}

TEST(IncrementalFeasibilityTest, AffectanceQuantityUsesDeterministicModel) {
  const net::LinkSet links = RandomLinks(26, 18);
  ChannelParams params;
  const DeterministicSinr sinr(links, params);
  const InterferenceEngine engine(links, params, {});
  IncrementalFeasibility acc(engine,
                             IncrementalFeasibility::Quantity::kAffectance);
  AddToAll(acc, 0, links.Size());
  AddToAll(acc, 5, links.Size());
  for (net::LinkId j = 0; j < links.Size(); ++j) {
    if (j == 0 || j == 5) continue;
    const double want = sinr.NoiseAffectance(j) + sinr.Affectance(0, j) +
                        sinr.Affectance(5, j);
    EXPECT_NEAR(acc.Sum(j), want, 1e-12);
  }
}

}  // namespace
}  // namespace fadesched::channel
