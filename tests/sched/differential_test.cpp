// Differential tests: every scheduler must return the *identical* schedule
// whether its feasibility sums come from the reference calculator or the
// precomputed fast tables. This is the schedule-level guarantee that the
// batched engine is a pure optimization, checked across 50+ seeded
// scenarios (and re-run by CI under FADESCHED_SIMD_LEVEL=scalar).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "channel/batch_interference.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/approx_diversity.hpp"
#include "sched/approx_logn.hpp"
#include "sched/greedy.hpp"
#include "sched/ldp.hpp"
#include "sched/rle.hpp"

namespace fadesched::sched {
namespace {

struct Scenario {
  std::uint64_t seed = 0;
  std::size_t num_links = 0;
  channel::ChannelParams params;
};

std::vector<Scenario> MakeScenarios() {
  // 54 scenarios: 18 seeds × 3 parameter regimes, sizes cycling through
  // {20, 45, 80}. Regimes cover the paper's defaults, a high-α/strict-ε
  // channel, and an ambient-noise extension.
  std::vector<Scenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 18; ++seed) {
    for (int regime = 0; regime < 3; ++regime) {
      Scenario s;
      s.seed = seed * 1000 + static_cast<std::uint64_t>(regime);
      s.num_links = 20 + 25 * ((seed + static_cast<std::uint64_t>(regime)) % 3);
      if (regime == 1) {
        s.params.alpha = 4.0;
        s.params.gamma_th = 2.0;
        s.params.epsilon = 0.003;
      } else if (regime == 2) {
        s.params.alpha = 2.5;
        s.params.noise_power = 1e-7;
      }
      scenarios.push_back(s);
    }
  }
  return scenarios;
}

net::LinkSet MakeLinks(const Scenario& s) {
  rng::Xoshiro256 gen(s.seed);
  return net::MakeUniformScenario(s.num_links, {}, gen);
}

std::vector<channel::EngineOptions> BackendSweep() {
  std::vector<channel::EngineOptions> sweep;
  channel::EngineOptions calculator;
  calculator.backend = channel::FactorBackend::kCalculator;
  sweep.push_back(calculator);
  channel::EngineOptions tables;  // the default
  sweep.push_back(tables);
  return sweep;
}

using SchedulerFactory =
    std::unique_ptr<Scheduler> (*)(const channel::EngineOptions&);

struct NamedFactory {
  const char* name;
  SchedulerFactory make;
};

const NamedFactory kFactories[] = {
    {"rle",
     [](const channel::EngineOptions& engine) -> std::unique_ptr<Scheduler> {
       RleOptions options;
       options.interference = engine;
       return std::make_unique<RleScheduler>(options);
     }},
    {"fading_greedy",
     [](const channel::EngineOptions& engine) -> std::unique_ptr<Scheduler> {
       FadingGreedyOptions options;
       options.interference = engine;
       return std::make_unique<FadingGreedyScheduler>(options);
     }},
    {"ldp",
     [](const channel::EngineOptions& engine) -> std::unique_ptr<Scheduler> {
       LdpOptions options;
       options.interference = engine;
       return std::make_unique<LdpScheduler>(options);
     }},
    {"approx_logn",
     [](const channel::EngineOptions& engine) -> std::unique_ptr<Scheduler> {
       ApproxLogNOptions options;
       options.interference = engine;
       return std::make_unique<ApproxLogNScheduler>(options);
     }},
    {"approx_diversity",
     [](const channel::EngineOptions& engine) -> std::unique_ptr<Scheduler> {
       ApproxDiversityOptions options;
       options.interference = engine;
       return std::make_unique<ApproxDiversityScheduler>(options);
     }},
};

TEST(DifferentialTest, AllSchedulersAgreeAcrossBackends) {
  const std::vector<Scenario> scenarios = MakeScenarios();
  ASSERT_GE(scenarios.size(), 50u);
  for (const Scenario& scenario : scenarios) {
    const net::LinkSet links = MakeLinks(scenario);
    for (const NamedFactory& factory : kFactories) {
      const net::Schedule reference =
          factory.make(channel::EngineOptions{})
              ->Schedule(links, scenario.params)
              .schedule;
      for (const channel::EngineOptions& engine : BackendSweep()) {
        const net::Schedule got =
            factory.make(engine)->Schedule(links, scenario.params).schedule;
        EXPECT_EQ(got, reference)
            << factory.name << " diverged on seed " << scenario.seed
            << " n=" << scenario.num_links << " backend="
            << static_cast<int>(engine.backend);
      }
    }
  }
}

TEST(DifferentialTest, SchedulesAreNonTrivial) {
  // Guard against the agreement above being vacuous: on the paper-default
  // regime every scheduler must actually pick links.
  const Scenario s{4242, 60, {}};
  const net::LinkSet links = MakeLinks(s);
  for (const NamedFactory& factory : kFactories) {
    const net::Schedule schedule =
        factory.make({})->Schedule(links, s.params).schedule;
    EXPECT_FALSE(schedule.empty()) << factory.name;
  }
}

}  // namespace
}  // namespace fadesched::sched
