// Scheduler behaviour under the ambient-noise extension: every
// fading-resistant scheduler must still emit Corollary-3.1-feasible
// schedules when N₀ > 0, must never schedule a link whose noise factor
// alone exceeds γ_ε, and must degrade gracefully as noise rises.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"

namespace fadesched::sched {
namespace {

channel::ChannelParams NoisyParams(double noise_relative) {
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.05;
  // Noise as a fraction of the γ_ε budget of a length-20 link (the
  // longest the paper's generator emits): noise_relative = 1 would make
  // the longest links borderline-hopeless.
  params.noise_power = noise_relative * params.GammaEpsilon() *
                       params.MeanPower(20.0) / params.gamma_th;
  return params;
}

using NoiseGrid =
    std::tuple<std::string /*algorithm*/, double /*noise_relative*/,
               std::uint64_t /*seed*/>;

class NoisyFeasibilityTest : public ::testing::TestWithParam<NoiseGrid> {};

TEST_P(NoisyFeasibilityTest, SchedulesRemainFeasible) {
  const auto [name, noise_relative, seed] = GetParam();
  rng::Xoshiro256 gen(seed);
  const net::LinkSet links = net::MakeUniformScenario(150, {}, gen);
  const auto params = NoisyParams(noise_relative);
  const auto result = MakeScheduler(name)->Schedule(links, params);
  const channel::InterferenceCalculator calc(links, params);
  EXPECT_TRUE(channel::ScheduleIsFeasible(calc, result.schedule))
      << name << " noise_rel=" << noise_relative << " seed=" << seed;
}

// Names the cases by value (e.g. "ldp_noise0p1_seed1") so the test names
// CTest discovers stay the same from one build and run to the next.
std::string NoiseGridName(const ::testing::TestParamInfo<NoiseGrid>& info) {
  const auto [name, noise_relative, seed] = info.param;
  const int tenths = static_cast<int>(noise_relative * 10.0 + 0.5);
  return name + "_noise" + std::to_string(tenths / 10) + "p" +
         std::to_string(tenths % 10) + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    NoiseGridSweep, NoisyFeasibilityTest,
    ::testing::Combine(::testing::Values("ldp", "rle", "fading_greedy"),
                       ::testing::Values(0.1, 0.5, 0.9),
                       ::testing::Values(1, 2, 3)),
    NoiseGridName);

TEST(NoisySchedulersTest, HopelessLinksNeverScheduled) {
  // Crank noise so that every link longer than ~10 is hopeless.
  rng::Xoshiro256 gen(4);
  const net::LinkSet links = net::MakeUniformScenario(200, {}, gen);
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.05;
  params.noise_power =
      params.GammaEpsilon() * params.MeanPower(10.0) / params.gamma_th;
  const channel::InterferenceCalculator calc(links, params);
  for (const char* name : {"ldp", "rle", "fading_greedy", "dls"}) {
    const auto result = MakeScheduler(name)->Schedule(links, params);
    for (net::LinkId id : result.schedule) {
      EXPECT_LT(calc.NoiseFactor(id), params.GammaEpsilon())
          << name << " scheduled hopeless link " << id;
    }
  }
}

TEST(NoisySchedulersTest, ThroughputDegradesWithNoise) {
  rng::Xoshiro256 gen(5);
  const net::LinkSet links = net::MakeUniformScenario(300, {}, gen);
  for (const char* name : {"rle", "fading_greedy"}) {
    const double quiet = MakeScheduler(name)
                             ->Schedule(links, NoisyParams(0.0))
                             .claimed_rate;
    const double loud = MakeScheduler(name)
                            ->Schedule(links, NoisyParams(0.9))
                            .claimed_rate;
    EXPECT_LE(loud, quiet) << name;
  }
}

TEST(NoisySchedulersTest, ZeroNoiseReproducesPaperBehaviour) {
  // The extension must be a strict superset: N₀ = 0 gives bit-identical
  // schedules to the original implementation.
  rng::Xoshiro256 gen(6);
  const net::LinkSet links = net::MakeUniformScenario(150, {}, gen);
  channel::ChannelParams base;
  base.alpha = 3.0;
  channel::ChannelParams zero_noise = base;
  zero_noise.noise_power = 0.0;
  for (const char* name : {"ldp", "rle", "approx_logn", "approx_diversity",
                           "fading_greedy", "dls"}) {
    EXPECT_EQ(MakeScheduler(name)->Schedule(links, base).schedule,
              MakeScheduler(name)->Schedule(links, zero_noise).schedule)
        << name;
  }
}

TEST(NoisySchedulersTest, ExactSolverAccountsForNoise) {
  // Two far-apart links, noise that only the longer one cannot absorb:
  // the optimum is exactly the short link.
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {4, 0}, 1.0});
  links.Add(net::Link{{1000, 0}, {1012, 0}, 5.0});  // heavier but long
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.05;
  // Noise factor of a length-12 link above γ_ε; length-4 far below.
  params.noise_power =
      1.5 * params.GammaEpsilon() * params.MeanPower(12.0) / params.gamma_th;
  const auto result = MakeScheduler("exact_bb")->Schedule(links, params);
  EXPECT_EQ(result.schedule, net::Schedule{0});
}

}  // namespace
}  // namespace fadesched::sched
