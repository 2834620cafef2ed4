// Property tests for the precision ladder: the fast kMatrix build stays
// inside the configured ULP band of the exact build, flagged entries are
// re-verified (and promoted) against the exact expression, adversarial
// geometry forces domain promotions, and the build is bit-identical for
// any thread count and tile size.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "channel/batch_interference.hpp"
#include "mathx/ulp.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::channel {
namespace {

net::LinkSet RandomLinks(std::uint64_t seed, std::size_t n) {
  rng::Xoshiro256 gen(seed);
  return net::MakeUniformScenario(n, {}, gen);
}

std::uint64_t UlpOrBitEqual(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return 0;
  }
  return mathx::UlpDistance(got, want);
}

EngineOptions LadderOptions() {
  EngineOptions options;
  options.backend = FactorBackend::kMatrix;
  options.ladder.enabled = true;
  return options;
}

TEST(PrecisionLadderTest, FastBuildStaysInsideBandOfExactBuild) {
  const net::LinkSet links = RandomLinks(42, 120);
  ChannelParams params;
  const EngineOptions options = LadderOptions();
  const InterferenceEngine fast(links, params, options);
  EngineOptions exact_options;
  exact_options.backend = FactorBackend::kMatrix;
  const InterferenceEngine exact(links, params, exact_options);

  const LadderStats& stats = fast.Ladder();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.fallback_reason, nullptr);
  EXPECT_EQ(stats.level, ResolveSimdLevel(SimdLevel::kAuto));
  EXPECT_EQ(stats.entries, links.Size() * (links.Size() - 1));
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_LE(UlpOrBitEqual(fast.Factor(i, j), exact.Factor(i, j)),
                options.ladder.ulp_band)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(PrecisionLadderTest, FullVerifyWithZeroBandPromotesToExact) {
  // ulp_band = 0 under kFull turns the ladder into "promote everything
  // that is not bit-exact" — the result must equal the exact build
  // everywhere, and (since the fast expression reorders arithmetic) at
  // least one entry must actually have been promoted to get there.
  const net::LinkSet links = RandomLinks(99, 80);
  ChannelParams params;
  EngineOptions options = LadderOptions();
  options.ladder.verify = PrecisionLadderOptions::Verify::kFull;
  options.ladder.ulp_band = 0;
  const InterferenceEngine fast(links, params, options);
  EngineOptions exact_options;
  exact_options.backend = FactorBackend::kMatrix;
  const InterferenceEngine exact(links, params, exact_options);

  const LadderStats& stats = fast.Ladder();
  EXPECT_EQ(stats.verified_entries, links.Size() * (links.Size() - 1));
  EXPECT_GT(stats.promoted_verify, 0u);
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_DOUBLE_EQ(fast.Factor(i, j), exact.Factor(i, j))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(PrecisionLadderTest, AdversarialGeometryForcesDomainPromotions) {
  // A sender 1e-160 away from a victim receiver drives d² subnormal and
  // d^α to zero — the fast affectance becomes inf at every dispatch tier
  // and must be promoted through the exact expression (which also yields
  // inf, keeping the builds consistent).
  net::LinkSet links;
  links.Add({{0.0, 0.0}, {10.0, 0.0}});
  links.Add({{10.0, 1e-160}, {20.0, 5.0}});
  links.Add({{300.0, 300.0}, {310.0, 300.0}});
  ChannelParams params;
  const InterferenceEngine fast(links, params, LadderOptions());
  const LadderStats& stats = fast.Ladder();
  EXPECT_TRUE(stats.active);
  EXPECT_GT(stats.promoted_domain, 0u);
  EngineOptions exact_options;
  exact_options.backend = FactorBackend::kMatrix;
  const InterferenceEngine exact(links, params, exact_options);
  // The promoted entry is the exact value bit-for-bit (here: +inf).
  EXPECT_TRUE(std::isinf(exact.Factor(1, 0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.Factor(1, 0)),
            std::bit_cast<std::uint64_t>(exact.Factor(1, 0)));
}

TEST(PrecisionLadderTest, BuildIsBitIdenticalAcrossThreadsAndTiles) {
  const net::LinkSet links = RandomLinks(123, 150);
  ChannelParams params;
  const EngineOptions serial = LadderOptions();
  const InterferenceEngine reference(links, params, serial);
  util::ThreadPool pool(3);
  for (std::size_t tile_rows : {std::size_t{7}, std::size_t{64},
                                std::size_t{1000}}) {
    EngineOptions pooled = LadderOptions();
    pooled.pool = &pool;
    pooled.tile_rows = tile_rows;
    const InterferenceEngine engine(links, params, pooled);
    for (net::LinkId i = 0; i < links.Size(); ++i) {
      for (net::LinkId j = 0; j < links.Size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.Factor(i, j)),
                  std::bit_cast<std::uint64_t>(reference.Factor(i, j)))
            << "tile_rows=" << tile_rows << " i=" << i << " j=" << j;
      }
    }
    // Promotion accounting is deterministic too — tiles own disjoint
    // rows and the verify rungs run serially off a fixed seed.
    EXPECT_EQ(engine.Ladder().promoted_domain,
              reference.Ladder().promoted_domain);
    EXPECT_EQ(engine.Ladder().promoted_verify,
              reference.Ladder().promoted_verify);
    EXPECT_EQ(engine.Ladder().promoted_rows, reference.Ladder().promoted_rows);
    EXPECT_EQ(engine.Ladder().max_verify_ulp,
              reference.Ladder().max_verify_ulp);
  }
}

TEST(PrecisionLadderTest, VerificationCountsMatchConfiguration) {
  const net::LinkSet links = RandomLinks(7, 30);
  ChannelParams params;
  EngineOptions options = LadderOptions();
  options.ladder.verify_samples = 200;
  options.ladder.verify_rows = 5;
  const InterferenceEngine sampled(links, params, options);
  EXPECT_EQ(sampled.Ladder().verified_entries, 200u);
  EXPECT_EQ(sampled.Ladder().verified_rows, 5u);

  options.ladder.verify_samples = 1u << 20;  // more than n(n-1): clamped
  options.ladder.verify_rows = 1000;
  const InterferenceEngine clamped(links, params, options);
  EXPECT_EQ(clamped.Ladder().verified_entries,
            links.Size() * (links.Size() - 1));
  EXPECT_EQ(clamped.Ladder().verified_rows, links.Size());

  options.ladder.verify = PrecisionLadderOptions::Verify::kOff;
  options.ladder.verify_rows = 0;
  const InterferenceEngine off(links, params, options);
  EXPECT_EQ(off.Ladder().verified_entries, 0u);
  EXPECT_EQ(off.Ladder().verified_rows, 0u);
}

TEST(PrecisionLadderTest, AffectanceMatrixGoesThroughTheLadderToo) {
  const net::LinkSet links = RandomLinks(31, 90);
  ChannelParams params;
  EngineOptions options = LadderOptions();
  options.affectance_matrix = true;
  const InterferenceEngine fast(links, params, options);
  EXPECT_TRUE(fast.Ladder().active);
  EngineOptions exact_options;
  exact_options.backend = FactorBackend::kMatrix;
  exact_options.affectance_matrix = true;
  const InterferenceEngine exact(links, params, exact_options);
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_LE(UlpOrBitEqual(fast.Affectance(i, j), exact.Affectance(i, j)),
                options.ladder.ulp_band)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(PrecisionLadderTest, ObtainEngineTreatsLadderAsResultBearing) {
  const net::LinkSet links = RandomLinks(88, 25);
  ChannelParams params;
  EngineOptions built_options = LadderOptions();
  auto shared = std::make_shared<const InterferenceEngine>(links, params,
                                                           built_options);

  // Same ladder configuration: reused.
  EngineOptions same = LadderOptions();
  same.shared = shared;
  std::optional<InterferenceEngine> local_same;
  EXPECT_EQ(&ObtainEngine(links, params, same, local_same), shared.get());

  // Ladder off vs. on: a fresh exact build, not the fast matrix.
  EngineOptions off;
  off.backend = FactorBackend::kMatrix;
  off.shared = shared;
  std::optional<InterferenceEngine> local_off;
  const InterferenceEngine& got_off = ObtainEngine(links, params, off,
                                                   local_off);
  EXPECT_NE(&got_off, shared.get());
  EXPECT_FALSE(got_off.Ladder().active);

  // Different band: rebuilt.
  EngineOptions tighter = LadderOptions();
  tighter.ladder.ulp_band = 2;
  tighter.shared = shared;
  std::optional<InterferenceEngine> local_tight;
  EXPECT_NE(&ObtainEngine(links, params, tighter, local_tight), shared.get());

  // Both ladders disabled with different idle knobs: interchangeable.
  EngineOptions built_plain;
  built_plain.backend = FactorBackend::kMatrix;
  auto shared_plain = std::make_shared<const InterferenceEngine>(
      links, params, built_plain);
  EngineOptions idle_knobs;
  idle_knobs.backend = FactorBackend::kMatrix;
  idle_knobs.ladder.ulp_band = 3;  // irrelevant while disabled
  idle_knobs.shared = shared_plain;
  std::optional<InterferenceEngine> local_idle;
  EXPECT_EQ(&ObtainEngine(links, params, idle_knobs, local_idle),
            shared_plain.get());
}

TEST(PrecisionLadderTest, ForcedScalarMatchesAutoWithinBand) {
  // The forced-scalar ladder is the differential suite's second dispatch
  // mode; its entries must sit within the band of the exact build just
  // like the auto tier (and bit-equal it when the host resolves to
  // scalar anyway).
  const net::LinkSet links = RandomLinks(555, 100);
  ChannelParams params;
  params.alpha = 4.0;
  EngineOptions scalar_options = LadderOptions();
  scalar_options.ladder.force_level = SimdLevel::kScalar;
  const InterferenceEngine scalar_engine(links, params, scalar_options);
  EXPECT_EQ(scalar_engine.Ladder().level, SimdLevel::kScalar);
  EngineOptions exact_options;
  exact_options.backend = FactorBackend::kMatrix;
  const InterferenceEngine exact(links, params, exact_options);
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      EXPECT_LE(
          UlpOrBitEqual(scalar_engine.Factor(i, j), exact.Factor(i, j)),
          scalar_options.ladder.ulp_band)
          << "i=" << i << " j=" << j;
    }
  }
}

}  // namespace
}  // namespace fadesched::channel
