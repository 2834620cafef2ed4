#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/exact_metrics.hpp"
#include "util/check.hpp"

namespace fadesched::sim {
namespace {

channel::ChannelParams PaperParams() {
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.gamma_th = 1.0;
  params.epsilon = 0.01;
  return params;
}

net::LinkSet TwoLinkLine(double gap) {
  net::LinkSet links;
  links.Add(net::Link{{0, 0}, {1, 0}, 1.0});
  links.Add(net::Link{{gap, 0}, {gap + 1, 0}, 1.0});
  return links;
}

TEST(MonteCarloTest, EmptyScheduleHasZeroMetrics) {
  const net::LinkSet links = TwoLinkLine(10.0);
  SimOptions options;
  options.trials = 50;
  const SimResult result =
      SimulateSchedule(links, PaperParams(), {}, options);
  EXPECT_EQ(result.trials, 50u);
  EXPECT_EQ(result.scheduled_links, 0u);
  EXPECT_DOUBLE_EQ(result.failed_per_trial.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.throughput_per_trial.Mean(), 0.0);
}

TEST(MonteCarloTest, LoneLinkNeverFails) {
  // Noise is ignored (Formula (8)), so an interference-free link always
  // decodes.
  const net::LinkSet links = TwoLinkLine(10.0);
  SimOptions options;
  options.trials = 500;
  const SimResult result =
      SimulateSchedule(links, PaperParams(), {0}, options);
  EXPECT_DOUBLE_EQ(result.failed_per_trial.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.link_success_rate[0], 1.0);
  EXPECT_DOUBLE_EQ(result.throughput_per_trial.Mean(), 1.0);
}

TEST(MonteCarloTest, TwoLinkSuccessRateMatchesTheorem31) {
  // Analytic: Pr(X_0 ≥ γ) = 1/(1 + γ (d_00/d_10)^α).
  const double gap = 4.0;
  const net::LinkSet links = TwoLinkLine(gap);
  const auto params = PaperParams();
  SimOptions options;
  options.trials = 200000;
  options.seed = 9;
  const net::Schedule schedule{0, 1};
  const SimResult result = SimulateSchedule(links, params, schedule, options);
  const double d10 = gap - 1.0;
  const double expected = 1.0 / (1.0 + std::pow(1.0 / d10, 3.0));
  EXPECT_NEAR(result.link_success_rate[0], expected, 0.005);
}

TEST(MonteCarloTest, MatchesClosedFormOnRandomSchedules) {
  rng::Xoshiro256 gen(3);
  net::UniformScenarioParams sp;
  sp.region_size = 150.0;  // dense: meaningful interference
  const net::LinkSet links = net::MakeUniformScenario(20, sp, gen);
  const auto params = PaperParams();
  net::Schedule schedule;
  for (net::LinkId i = 0; i < links.Size(); i += 2) schedule.push_back(i);
  SimOptions options;
  options.trials = 50000;
  const SimResult sim = SimulateSchedule(links, params, schedule, options);
  const ExpectedMetrics expected =
      ComputeExpectedMetrics(links, params, schedule);
  // 5 sigma tolerance on the mean.
  const double tol_failed =
      5.0 * sim.failed_per_trial.StdError() + 1e-9;
  EXPECT_NEAR(sim.failed_per_trial.Mean(), expected.expected_failed,
              tol_failed);
  const double tol_tput =
      5.0 * sim.throughput_per_trial.StdError() + 1e-9;
  EXPECT_NEAR(sim.throughput_per_trial.Mean(), expected.expected_throughput,
              tol_tput);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    EXPECT_NEAR(sim.link_success_rate[k],
                expected.link_success_probability[k], 0.02);
  }
}

TEST(MonteCarloTest, DeterministicForSeed) {
  const net::LinkSet links = TwoLinkLine(5.0);
  const net::Schedule schedule{0, 1};
  SimOptions options;
  options.trials = 1000;
  options.seed = 77;
  const SimResult a = SimulateSchedule(links, PaperParams(), schedule, options);
  const SimResult b = SimulateSchedule(links, PaperParams(), schedule, options);
  EXPECT_DOUBLE_EQ(a.failed_per_trial.Mean(), b.failed_per_trial.Mean());
  EXPECT_DOUBLE_EQ(a.link_success_rate[0], b.link_success_rate[0]);
}

TEST(MonteCarloTest, DifferentSeedsDiffer) {
  const net::LinkSet links = TwoLinkLine(3.0);
  const net::Schedule schedule{0, 1};
  SimOptions a;
  a.trials = 200;
  a.seed = 1;
  SimOptions b = a;
  b.seed = 2;
  const SimResult ra = SimulateSchedule(links, PaperParams(), schedule, a);
  const SimResult rb = SimulateSchedule(links, PaperParams(), schedule, b);
  EXPECT_NE(ra.failed_per_trial.Mean(), rb.failed_per_trial.Mean());
}

TEST(MonteCarloTest, ThreadCountInvariantPerLinkCounts) {
  // Per-trial streams are keyed by trial index, so the per-link success
  // *counts* are identical for any pool size.
  rng::Xoshiro256 gen(4);
  net::UniformScenarioParams sp;
  sp.region_size = 150.0;
  const net::LinkSet links = net::MakeUniformScenario(12, sp, gen);
  net::Schedule schedule;
  for (net::LinkId i = 0; i < links.Size(); ++i) schedule.push_back(i);
  SimOptions options;
  options.trials = 2000;
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  const SimResult r1 =
      SimulateSchedule(links, PaperParams(), schedule, options, one);
  const SimResult r4 =
      SimulateSchedule(links, PaperParams(), schedule, options, four);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    EXPECT_DOUBLE_EQ(r1.link_success_rate[k], r4.link_success_rate[k]);
  }
  EXPECT_NEAR(r1.failed_per_trial.Mean(), r4.failed_per_trial.Mean(), 1e-12);
}

TEST(MonteCarloTest, CloseInterfererFailsOften) {
  const net::LinkSet links = TwoLinkLine(1.5);
  SimOptions options;
  options.trials = 20000;
  const SimResult result =
      SimulateSchedule(links, PaperParams(), {0, 1}, options);
  // d_10 = 0.5 < d_00 = 1 ⇒ interferer usually stronger than signal.
  EXPECT_LT(result.link_success_rate[0], 0.25);
}

TEST(MonteCarloTest, FailedPlusDeliveredIsConsistent) {
  // failures + successes == schedule size per trial; in expectation:
  // E[failed] + E[throughput] == m for unit rates.
  rng::Xoshiro256 gen(5);
  net::UniformScenarioParams sp;
  sp.region_size = 200.0;
  const net::LinkSet links = net::MakeUniformScenario(10, sp, gen);
  net::Schedule schedule;
  for (net::LinkId i = 0; i < links.Size(); ++i) schedule.push_back(i);
  SimOptions options;
  options.trials = 5000;
  const SimResult result =
      SimulateSchedule(links, PaperParams(), schedule, options);
  EXPECT_NEAR(result.failed_per_trial.Mean() +
                  result.throughput_per_trial.Mean(),
              static_cast<double>(schedule.size()), 1e-9);
}

TEST(MonteCarloTest, ZeroTrialsRejected) {
  const net::LinkSet links = TwoLinkLine(5.0);
  SimOptions options;
  options.trials = 0;
  EXPECT_THROW(SimulateSchedule(links, PaperParams(), {0}, options),
               util::CheckFailure);
}

TEST(MonteCarloTest, InvalidScheduleIdRejected) {
  const net::LinkSet links = TwoLinkLine(5.0);
  SimOptions options;
  options.trials = 10;
  EXPECT_THROW(SimulateSchedule(links, PaperParams(), {7}, options),
               util::CheckFailure);
}

// A repeated id used to be counted as its own interferer (the skip was
// positional), so link 0 "failed" about half the time at γ_th = 1 while
// ComputeExpectedMetrics, which skips by id, reported success 1.
TEST(MonteCarloTest, DuplicateScheduleIdRejected) {
  const net::LinkSet links = TwoLinkLine(5.0);
  SimOptions options;
  options.trials = 10;
  EXPECT_THROW(SimulateSchedule(links, PaperParams(), {0, 0}, options),
               util::CheckFailure);
  EXPECT_THROW(SimulateSchedule(links, PaperParams(), {1, 0, 1}, options),
               util::CheckFailure);
}

TEST(MonteCarloTest, OptionsValidateCatchesBadFields) {
  SimOptions options;
  options.Validate();  // defaults are fine
  options.trials = 0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
  options = SimOptions{};
  options.fading.nakagami_m = -1.0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
}

// Rayleigh and shadowed results pinned as hex floats captured before the
// fading draw moved to the in-house log and the batched SIMD transform.
// ln(1 − U) there is within 1 ULP of the libm log1p(−U) it replaced; a
// decode flips only if that ULP straddles a threshold, and none does
// here, so any change to these bits is a change to the §II sampling.
TEST(MonteCarloTest, RayleighAndShadowedResultsArePinned) {
  rng::Xoshiro256 gen(2017);
  net::UniformScenarioParams layout;
  layout.region_size = 120.0;
  const net::LinkSet links = net::MakeUniformScenario(12, layout, gen);
  net::Schedule schedule(links.Size());
  std::iota(schedule.begin(), schedule.end(), 0);
  struct Pinned {
    FadingModel model;
    double failed_mean;
    double failed_variance;
    std::vector<double> link_success_rate;
  };
  const std::vector<Pinned> pinned = {
      {FadingModel::kRayleigh, 0x1.dd020c49ba5e5p+2, 0x1.dda3d0e0c98f6p+0,
       {0x1.25e353f7ced91p-2, 0x1.c8b4395810625p-5, 0x1.72f1a9fbe76c9p-2,
        0x1.ae147ae147ae1p-5, 0x1.a53f7ced91687p-1, 0x1.8604189374bc7p-1,
        0x1.ea7ef9db22d0ep-4, 0x1.8fdf3b645a1cbp-2, 0x1.a1cac083126e9p-6,
        0x1.849ba5e353f7dp-1, 0x1.50a3d70a3d70ap-1, 0x1.028f5c28f5c29p-2}},
      {FadingModel::kShadowedRayleigh, 0x1.0151eb851eb8bp+3,
       0x1.24c05af43550ap+1,
       {0x1.272b020c49ba6p-2, 0x1.dc28f5c28f5c3p-4, 0x1.3604189374bc7p-2,
        0x1.06a7ef9db22d1p-3, 0x1.49db22d0e5604p-1, 0x1.1b851eb851eb8p-1,
        0x1.4e5604189374cp-3, 0x1.34395810624ddp-2, 0x1.8f5c28f5c28f6p-4,
        0x1.17ced916872bp-1, 0x1.07ced916872bp-1, 0x1.34fdf3b645a1dp-2}},
  };
  for (const Pinned& want : pinned) {
    SimOptions options;
    options.trials = 4000;
    options.seed = 31;
    options.fading.model = want.model;
    const SimResult result =
        SimulateSchedule(links, PaperParams(), schedule, options);
    EXPECT_EQ(result.failed_per_trial.Mean(), want.failed_mean)
        << FadingModelName(want.model);
    EXPECT_EQ(result.failed_per_trial.Variance(), want.failed_variance)
        << FadingModelName(want.model);
    EXPECT_EQ(result.link_success_rate, want.link_success_rate)
        << FadingModelName(want.model);
  }
}

}  // namespace
}  // namespace fadesched::sim
