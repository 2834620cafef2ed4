#include "sim/fading_models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mathx/ks_test.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/rle.hpp"
#include "sim/monte_carlo.hpp"
#include "util/check.hpp"

namespace fadesched::sim {
namespace {

constexpr int kSamples = 100000;

TEST(GammaSampleTest, MeanIsShapeTimesScale) {
  rng::Xoshiro256 gen(1);
  for (double shape : {0.5, 1.0, 2.5, 8.0}) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      sum += rng::GammaSample(gen, shape, 1.5);
    }
    EXPECT_NEAR(sum / kSamples, shape * 1.5, 0.05 * shape * 1.5)
        << "shape=" << shape;
  }
}

TEST(GammaSampleTest, VarianceIsShapeTimesScaleSquared) {
  rng::Xoshiro256 gen(2);
  const double shape = 3.0;
  const double scale = 0.7;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng::GammaSample(gen, shape, scale);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(var, shape * scale * scale, 0.1);
}

TEST(GammaSampleTest, ShapeOneIsExponential) {
  // Gamma(1, θ) == Exp(θ): compare survival at θ.
  rng::Xoshiro256 gen(3);
  int above = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng::GammaSample(gen, 1.0, 2.0) > 2.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / kSamples, std::exp(-1.0), 0.01);
}

TEST(DrawFadedPowerTest, AllModelsPreserveTheMean) {
  rng::Xoshiro256 gen(4);
  const double mean = 3.25;
  for (FadingOptions options :
       {FadingOptions{},
        FadingOptions{FadingModel::kNakagami, 4.0, 6.0},
        FadingOptions{FadingModel::kNakagami, 0.5, 6.0},
        FadingOptions{FadingModel::kShadowedRayleigh, 1.0, 8.0}}) {
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      sum += DrawFadedPower(gen, mean, options);
    }
    EXPECT_NEAR(sum / kSamples, mean, 0.1)
        << FadingModelName(options.model);
  }
}

TEST(DrawFadedPowerTest, HigherNakagamiMLessVariance) {
  rng::Xoshiro256 gen(5);
  auto variance = [&gen](double m) {
    FadingOptions options;
    options.model = FadingModel::kNakagami;
    options.nakagami_m = m;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      const double x = DrawFadedPower(gen, 1.0, options);
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / kSamples;
    return sum_sq / kSamples - mean * mean;
  };
  EXPECT_GT(variance(0.5), variance(1.0));
  EXPECT_GT(variance(1.0), variance(4.0));
}

TEST(DrawFadedPowerTest, InvalidOptionsRejected) {
  FadingOptions bad;
  bad.nakagami_m = 0.0;
  EXPECT_THROW(bad.Validate(), util::CheckFailure);
  bad = FadingOptions{};
  bad.shadowing_sigma_db = -1.0;
  EXPECT_THROW(bad.Validate(), util::CheckFailure);
}

TEST(DrawFadedPowerTest, NakagamiMeanIsExactAcrossShapes) {
  // All models are normalized to E[power] = mean; pin it per shape with a
  // standard-error-scaled tolerance instead of one shared loose bound.
  rng::Xoshiro256 gen(9);
  const double mean = 2.0;
  for (double m : {0.5, 1.0, 4.0}) {
    FadingOptions options;
    options.model = FadingModel::kNakagami;
    options.nakagami_m = m;
    double sum = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      sum += DrawFadedPower(gen, mean, options);
    }
    // Var = mean²/m ⇒ SE = mean/√(m·n); allow 4 SE.
    const double se = mean / std::sqrt(m * kSamples);
    EXPECT_NEAR(sum / kSamples, mean, 4.0 * se) << "m=" << m;
  }
}

TEST(DrawFadedPowerTest, ShadowedRayleighMeanIsExactAcrossSigmas) {
  rng::Xoshiro256 gen(10);
  const double mean = 2.0;
  for (double sigma_db : {0.0, 6.0, 12.0}) {
    FadingOptions options;
    options.model = FadingModel::kShadowedRayleigh;
    options.shadowing_sigma_db = sigma_db;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
      const double x = DrawFadedPower(gen, mean, options);
      sum += x;
      sum_sq += x * x;
    }
    const double sample_mean = sum / kSamples;
    const double sample_var =
        sum_sq / kSamples - sample_mean * sample_mean;
    const double se = std::sqrt(sample_var / kSamples);
    EXPECT_NEAR(sample_mean, mean, 5.0 * se + 1e-12)
        << "sigma_db=" << sigma_db;
  }
}

TEST(DrawFadedPowerTest, NakagamiOneIsExponentialByKsTest) {
  // Moment checks can't catch shape errors; KS against the full
  // exponential CDF can. Nakagami m = 1 must *be* Rayleigh power.
  rng::Xoshiro256 gen(11);
  FadingOptions options;
  options.model = FadingModel::kNakagami;
  options.nakagami_m = 1.0;
  const double mean = 1.7;
  std::vector<double> sample(20000);
  for (double& x : sample) x = DrawFadedPower(gen, mean, options);
  EXPECT_TRUE(mathx::KsTestPasses(
      sample, [mean](double x) { return 1.0 - std::exp(-x / mean); }));
}

TEST(DrawFadedPowerTest, RayleighPassesItsOwnKsTest) {
  rng::Xoshiro256 gen(12);
  const double mean = 0.8;
  std::vector<double> sample(20000);
  for (double& x : sample) x = DrawFadedPower(gen, mean, FadingOptions{});
  EXPECT_TRUE(mathx::KsTestPasses(
      sample, [mean](double x) { return 1.0 - std::exp(-x / mean); }));
}

TEST(DrawFadedPowerTest, SevereNakagamiIsNotExponential) {
  // Negative control: the KS machinery must reject a genuinely different
  // shape, otherwise the two tests above prove nothing.
  rng::Xoshiro256 gen(13);
  FadingOptions options;
  options.model = FadingModel::kNakagami;
  options.nakagami_m = 0.5;
  const double mean = 1.0;
  std::vector<double> sample(20000);
  for (double& x : sample) x = DrawFadedPower(gen, mean, options);
  EXPECT_FALSE(mathx::KsTestPasses(
      sample, [mean](double x) { return 1.0 - std::exp(-x / mean); }));
}

// DrawRealization is the one realization kernel behind the Monte-Carlo,
// feedback and slotted simulators; pin its draw order and variate count
// against a hand-rolled loop so a vectorized rewrite cannot reorder draws.
TEST(DrawRealizationTest, ConsumesMSquaredDrawsInRowMajorOrder) {
  constexpr std::size_t kM = 5;
  std::vector<double> mean(kM * kM);
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      // Asymmetric, entry-distinct means: a transposed or permuted draw
      // order changes the decode outcomes.
      mean[i * kM + j] = i == j ? 1.0 + 0.1 * static_cast<double>(i)
                                : 0.05 * static_cast<double>(1 + i + 3 * j);
    }
  }
  FadingOptions nakagami;
  nakagami.model = FadingModel::kNakagami;
  nakagami.nakagami_m = 0.7;
  FadingOptions shadowed;
  shadowed.model = FadingModel::kShadowedRayleigh;
  for (const FadingOptions& fading : {FadingOptions{}, nakagami, shadowed}) {
    for (double noise : {0.0, 0.2}) {
      channel::ChannelParams params;
      params.gamma_th = 1.0;
      params.noise_power = noise;
      rng::Xoshiro256 kernel_gen(77);
      rng::Xoshiro256 hand_gen(77);
      std::vector<double> scratch;
      std::size_t successes = 0;
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<char> got;
        DrawRealization(kernel_gen, mean, kM, params, fading, scratch,
                        [&](std::size_t j, bool ok) {
                          EXPECT_EQ(j, got.size());
                          got.push_back(ok ? 1 : 0);
                        });
        std::vector<double> power(kM * kM);
        for (std::size_t i = 0; i < kM; ++i) {
          for (std::size_t j = 0; j < kM; ++j) {
            power[i * kM + j] =
                DrawFadedPower(hand_gen, mean[i * kM + j], fading);
          }
        }
        ASSERT_EQ(got.size(), kM);
        for (std::size_t j = 0; j < kM; ++j) {
          double interference = noise;
          for (std::size_t i = 0; i < kM; ++i) {
            if (i != j) interference += power[i * kM + j];
          }
          const bool want = power[j * kM + j] >= interference;
          EXPECT_EQ(got[j] != 0, want) << "trial " << trial << " j=" << j;
          successes += want ? 1 : 0;
        }
        // Same stream position afterwards: exactly m² draws consumed.
        ASSERT_EQ(kernel_gen.Next(), hand_gen.Next()) << "trial " << trial;
      }
      // Both outcomes occur, so the comparison above has teeth.
      EXPECT_GT(successes, 0u);
      EXPECT_LT(successes, 200u * kM);
    }
  }
}

TEST(FadingRobustnessTest, NakagamiOneMatchesRayleighClosedForm) {
  rng::Xoshiro256 gen(6);
  net::UniformScenarioParams sp;
  sp.region_size = 150.0;
  const net::LinkSet links = net::MakeUniformScenario(10, sp, gen);
  channel::ChannelParams params;
  params.alpha = 3.0;
  net::Schedule schedule;
  for (net::LinkId i = 0; i < links.Size(); ++i) schedule.push_back(i);

  SimOptions rayleigh;
  rayleigh.trials = 40000;
  SimOptions nakagami1 = rayleigh;
  nakagami1.fading.model = FadingModel::kNakagami;
  nakagami1.fading.nakagami_m = 1.0;
  const SimResult a = SimulateSchedule(links, params, schedule, rayleigh);
  const SimResult b = SimulateSchedule(links, params, schedule, nakagami1);
  EXPECT_NEAR(a.failed_per_trial.Mean(), b.failed_per_trial.Mean(),
              5.0 * (a.failed_per_trial.StdError() +
                     b.failed_per_trial.StdError()) + 1e-9);
}

TEST(FadingRobustnessTest, MilderFadingHelpsFeasibleSchedules) {
  // A Rayleigh-feasible schedule has per-link success ≥ 1−ε; with milder
  // Nakagami fading (m = 4) the outage should not get worse.
  rng::Xoshiro256 gen(7);
  const net::LinkSet links = net::MakeUniformScenario(200, {}, gen);
  channel::ChannelParams params;
  params.alpha = 3.0;
  const net::Schedule schedule =
      sched::RleScheduler().Schedule(links, params).schedule;
  ASSERT_GE(schedule.size(), 2u);

  SimOptions rayleigh;
  rayleigh.trials = 30000;
  SimOptions mild = rayleigh;
  mild.fading.model = FadingModel::kNakagami;
  mild.fading.nakagami_m = 4.0;
  const SimResult r = SimulateSchedule(links, params, schedule, rayleigh);
  const SimResult n = SimulateSchedule(links, params, schedule, mild);
  EXPECT_LE(n.failed_per_trial.Mean(),
            r.failed_per_trial.Mean() +
                5.0 * r.failed_per_trial.StdError() + 1e-3);
}

TEST(FadingRobustnessTest, ShadowingIncreasesOutageOfTightSchedules) {
  // Log-normal shadowing fattens both tails; for a schedule engineered
  // right at the ε boundary the extra variability costs reliability.
  rng::Xoshiro256 gen(8);
  net::UniformScenarioParams sp;
  sp.region_size = 200.0;
  const net::LinkSet links = net::MakeUniformScenario(60, sp, gen);
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.05;
  // A deliberately dense hand-made schedule (every 4th link).
  net::Schedule schedule;
  for (net::LinkId i = 0; i < links.Size(); i += 4) schedule.push_back(i);

  SimOptions rayleigh;
  rayleigh.trials = 30000;
  SimOptions shadowed = rayleigh;
  shadowed.fading.model = FadingModel::kShadowedRayleigh;
  shadowed.fading.shadowing_sigma_db = 8.0;
  const SimResult r = SimulateSchedule(links, params, schedule, rayleigh);
  const SimResult s = SimulateSchedule(links, params, schedule, shadowed);
  EXPECT_GE(s.failed_per_trial.Mean(), r.failed_per_trial.Mean() * 0.8);
}

}  // namespace
}  // namespace fadesched::sim
