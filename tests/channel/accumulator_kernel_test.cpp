// The Corollary 3.1 accumulator's vector tiers against its scalar loop.
//
// The log1p lanes must return std::log1p's bits on every host that can
// dispatch them (glibc's FMA build of log1p), on random draws and at every
// branch threshold of the port in every lane position. The accumulator
// must leave the same sums, the same pruned alive masks and give the same
// member-test answers at every tier, on clustered, near-far and colinear
// layouts, for both quantities and every backend. CI reruns this binary
// with the dispatch forced to scalar and capped at AVX2. The dispatch's
// own rules (environment caps, clamping to the hardware, thread pins)
// are pinned at the end.
#include "channel/accumulator_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "channel/batch_interference.hpp"
#include "channel/simd_dispatch.hpp"
#include "net/scenario.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::channel {
namespace {

using Quantity = IncrementalFeasibility::Quantity;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The vector tiers this machine can execute.
std::vector<SimdLevel> VectorLevels() {
  std::vector<SimdLevel> levels;
  if (DetectSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (DetectSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// Why the log1p lanes cannot be held to std::log1p here, or "" if they
/// can: libm resolves log1p to its FMA build only with FMA and AVX2.
std::string Log1pSkipReason() {
#if defined(__x86_64__) || defined(_M_X64)
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    return "host has no FMA/AVX2: glibc's log1p resolves to its SSE2 build, "
           "which the lanes do not port, and no vector tier runs them";
  }
  return "";
#else
  return "not an x86-64 host: no vector tier";
#endif
}

void ExpectLanesMatchLibm(SimdLevel level, const std::vector<double>& x) {
  std::vector<double> lanes = x;
  simd::Log1pInPlace(level, lanes.data(), lanes.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (Bits(lanes[k]) != Bits(std::log1p(x[k])) && ++mismatches <= 5) {
      ADD_FAILURE() << SimdLevelName(level) << " log1p(" << std::hexfloat
                    << x[k] << ") = " << lanes[k] << ", libm "
                    << std::log1p(x[k]) << std::defaultfloat
                    << " (position " << k << ")";
    }
  }
  EXPECT_EQ(mismatches, 0u) << SimdLevelName(level);
}

TEST(AccumulatorKernelTest, Log1pLanesEqualStdLog1pOnRandomDraws) {
  const std::string skip = Log1pSkipReason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  // 2²⁴ draws log-uniform over [2⁻⁶⁰, 2⁵⁴) with full random mantissas —
  // every branch of the port plus the ≥ 2⁵³ lanes it hands back — and
  // 2²⁰ uniform on [0, 4), where affectances of near links fall.
  rng::Xoshiro256 gen(0x10691);
  std::vector<double> x;
  x.reserve((1u << 24) + (1u << 20));
  for (std::size_t k = 0; k < (1u << 24); ++k) {
    const int exponent = static_cast<int>(rng::UniformIndex(gen, 114)) - 60;
    x.push_back(std::ldexp(1.0 + rng::UniformUnit(gen), exponent));
  }
  for (std::size_t k = 0; k < (1u << 20); ++k) {
    x.push_back(4.0 * rng::UniformUnit(gen));
  }
  for (const SimdLevel level : VectorLevels()) ExpectLanesMatchLibm(level, x);
}

TEST(AccumulatorKernelTest, Log1pLanesEqualStdLog1pAtEveryBranchThreshold) {
  const std::string skip = Log1pSkipReason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  // High words hx of the port's branch tests, and the values x whose
  // 1 + x sits at the √2 fold (hu = 0x6a09e) or at a power of two (hu = 0
  // and its neighbours 0xfffff, 1), each with ±1 ulp (and ±2 ulp)
  // neighbours, plus 0 and the smallest subnormal.
  std::vector<double> grid = {0.0, 0x1p-1074};
  const auto around = [&grid](double v) {
    for (int d = -2; d <= 2; ++d) {
      grid.push_back(std::bit_cast<double>(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(Bits(v)) + d)));
    }
  };
  for (const std::uint64_t hx :
       {0x3c900000ull, 0x3e200000ull, 0x3FDA827Aull, 0x43400000ull}) {
    around(std::bit_cast<double>(hx << 32));
    around(std::bit_cast<double>((hx << 32) | 0xffffffffull));
  }
  for (int e = 0; e <= 52; ++e) {
    const double p = std::ldexp(1.0, e);
    around(std::ldexp(0x1.6a09ep0, e) - 1.0);  // hu = 0x6a09e
    around(std::ldexp(0x1.6a09dp0, e) - 1.0);  // hu = 0x6a09d
    around(p - 1.0);                          // hu = 0
    around(std::ldexp(0x1.00001p0, e) - 1.0);  // hu = 1
    around(std::ldexp(0x1.fffffp0, e) - 1.0);  // hu = 0xfffff
  }
  // Every grid value at every lane position of both widths: each pass
  // shifts the grid by one filler draw.
  rng::Xoshiro256 gen(0x70e5);
  std::vector<double> x;
  for (std::size_t shift = 0; shift < 8; ++shift) {
    for (std::size_t f = 0; f < shift; ++f) x.push_back(rng::UniformUnit(gen));
    x.insert(x.end(), grid.begin(), grid.end());
  }
  for (const SimdLevel level : VectorLevels()) ExpectLanesMatchLibm(level, x);
}

TEST(AccumulatorKernelTest, HostCheckAdmitsFactorLanesWhereTheyMatch) {
  const std::string skip = Log1pSkipReason();
  if (!skip.empty()) {
    EXPECT_FALSE(simd::Log1pLanesMatchLibm());
    GTEST_SKIP() << skip;
  }
  EXPECT_TRUE(simd::Log1pLanesMatchLibm());
}

// ---------------------------------------------------------------------------
// Accumulator tiers against the scalar loop.
// ---------------------------------------------------------------------------

struct Layout {
  std::string name;
  net::LinkSet links;
};

std::vector<Layout> Layouts() {
  std::vector<Layout> layouts;
  const std::size_t n = 203;  // full chunks of 4 and 8 plus a tail of 3
  {
    rng::Xoshiro256 gen(31);
    net::ClusteredScenarioParams p;
    p.region_size = 400.0;
    p.num_clusters = 3;
    layouts.push_back({"clustered", net::MakeClusteredScenario(n, p, gen)});
  }
  {
    rng::Xoshiro256 gen(32);
    net::NearFarScenarioParams p;
    p.region_size = 400.0;
    layouts.push_back({"near_far", net::MakeNearFarScenario(n, p, gen)});
  }
  {
    rng::Xoshiro256 gen(33);
    net::ColinearScenarioParams p;
    p.region_size = 400.0;
    layouts.push_back({"colinear", net::MakeColinearScenario(n, p, gen)});
  }
  return layouts;
}

/// Everything observable about one accumulator run: the bits of every
/// Sum(j) after each step, the alive masks, and the member-test answers.
struct Trace {
  std::vector<std::uint64_t> sums;
  std::vector<char> alive;
  std::vector<char> answers;

  bool operator==(const Trace&) const = default;
};

void RecordSums(const IncrementalFeasibility& acc, std::size_t n, Trace& t) {
  for (net::LinkId j = 0; j < n; ++j) t.sums.push_back(Bits(acc.Sum(j)));
}

/// An RLE-style run (seeded picks, AddAndPrune) and a greedy-style run
/// (AnyOverWith, then Add) at `level`.
Trace RunScript(const InterferenceEngine& engine, Quantity quantity,
                SimdLevel level, double budget) {
  const ScopedSimdLevel pin(level);
  const std::size_t n = engine.Size();
  Trace trace;

  IncrementalFeasibility rle(engine, quantity);
  std::vector<char> alive(n, 1);
  rng::Xoshiro256 gen(5);
  for (int step = 0; step < 16; ++step) {
    net::LinkId pick = rng::UniformIndex(gen, n);
    for (std::size_t probe = 0; probe < n && !alive[pick]; ++probe) {
      pick = (pick + 1) % n;
    }
    if (!alive[pick]) break;
    alive[pick] = 0;
    rle.AddAndPrune(pick, alive, budget);
    RecordSums(rle, n, trace);
    trace.alive.insert(trace.alive.end(), alive.begin(), alive.end());
  }

  // Members accumulate well past a chunk, then every link is tested
  // against them at a budget scaled so some answers flip.
  IncrementalFeasibility greedy(engine, quantity);
  std::vector<net::LinkId> members;
  const std::vector<char> all(n, 1);
  for (net::LinkId c = 0; c < n; c += 3) {
    const bool over = greedy.AnyOverWith(c, members, 40.0 * budget);
    trace.answers.push_back(over ? 1 : 0);
    if (!over) {
      std::vector<char> live = all;
      greedy.AddAndPrune(c, live, std::numeric_limits<double>::infinity());
      members.push_back(c);
    }
  }
  for (net::LinkId c = 0; c < n; ++c) {
    for (const double scale : {2.0, 20.0, 200.0}) {
      trace.answers.push_back(
          greedy.AnyOverWith(c, members, scale * budget) ? 1 : 0);
    }
  }
  RecordSums(greedy, n, trace);
  return trace;
}

TEST(AccumulatorKernelTest, EveryTierMatchesScalarSumsMasksAndAnswers) {
  const std::vector<SimdLevel> levels = VectorLevels();
  if (levels.empty()) GTEST_SKIP() << "no vector tier on this host";
  for (const Layout& layout : Layouts()) {
    // 3: d²·√d², 2.5: d²·(d²)^¼, 4: d²·d², 2.2: std::pow (engine terms).
    for (const double alpha : {3.0, 2.5, 4.0, 2.2}) {
      ChannelParams params;
      params.alpha = alpha;
      params.noise_power = 1e-9;
      for (const FactorBackend backend :
           {FactorBackend::kTables, FactorBackend::kCalculator}) {
        for (const Quantity quantity :
             {Quantity::kFactor, Quantity::kAffectance}) {
          EngineOptions options;
          options.backend = backend;
          const InterferenceEngine engine(layout.links, params, options);
          const double budget = quantity == Quantity::kFactor
                                    ? 0.5 * params.GammaEpsilon()
                                    : 0.5;
          const Trace scalar =
              RunScript(engine, quantity, SimdLevel::kScalar, budget);
          ASSERT_FALSE(scalar.answers.empty());
          for (const SimdLevel level : levels) {
            EXPECT_TRUE(RunScript(engine, quantity, level, budget) == scalar)
                << layout.name << " alpha=" << alpha
                << " backend=" << static_cast<int>(backend) << " quantity="
                << (quantity == Quantity::kFactor ? "factor" : "affectance")
                << " tier=" << SimdLevelName(level);
          }
        }
      }
    }
  }
}

TEST(AccumulatorKernelTest, CoincidentSenderThrowsOnlyWhenItsReceiverIsLive) {
  rng::Xoshiro256 gen(34);
  net::UniformScenarioParams p;
  net::LinkSet base = net::MakeUniformScenario(40, p, gen);
  net::LinkSet links;
  for (net::LinkId k = 0; k < base.Size(); ++k) {
    // Link 5's sender sits exactly on link 21's receiver.
    const geom::Vec2 sender = k == 5 ? base.Receiver(21) : base.Sender(k);
    links.Add({sender, base.Receiver(k)});
  }
  const ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  std::vector<SimdLevel> levels = VectorLevels();
  levels.push_back(SimdLevel::kScalar);
  for (const SimdLevel level : levels) {
    const ScopedSimdLevel pin(level);
    std::vector<char> alive(links.Size(), 1);
    IncrementalFeasibility acc(engine);
    EXPECT_THROW(acc.AddAndPrune(5, alive, 1e300), util::CheckFailure)
        << SimdLevelName(level);
    alive.assign(links.Size(), 1);
    alive[21] = 0;
    IncrementalFeasibility dead(engine);
    EXPECT_NO_THROW(dead.AddAndPrune(5, alive, 1e300)) << SimdLevelName(level);
  }
}

TEST(AccumulatorKernelTest, HugeAffectanceChunksFallBackToTheScalarLoop) {
  // Link 9's sender sits 10⁻⁷ from link 31's receiver: a_9,31 ≈ 10²¹, past
  // the lanes' 2⁵³ limit, so that chunk runs through the scalar loop at
  // every tier while the chunks around it stay vectorized.
  rng::Xoshiro256 gen(35);
  net::UniformScenarioParams p;
  const net::LinkSet base = net::MakeUniformScenario(45, p, gen);
  net::LinkSet links;
  for (net::LinkId k = 0; k < base.Size(); ++k) {
    geom::Vec2 sender = base.Sender(k);
    if (k == 9) sender = {base.Receiver(31).x + 1e-7, base.Receiver(31).y};
    links.Add({sender, base.Receiver(k)});
  }
  const ChannelParams params;
  const InterferenceEngine engine(links, params, {});
  ASSERT_GE(engine.Affectance(9, 31), 0x1p53);
  std::vector<net::LinkId> victims;
  for (net::LinkId v = 0; v < links.Size(); ++v) {
    if (v != 9) victims.push_back(v);
  }
  for (const Quantity quantity : {Quantity::kFactor, Quantity::kAffectance}) {
    const auto run = [&](SimdLevel level) {
      const ScopedSimdLevel pin(level);
      IncrementalFeasibility acc(engine, quantity);
      Trace trace;
      for (const double budget : {1e300, 1e30, 1.0}) {
        trace.answers.push_back(acc.AnyOverWith(9, victims, budget) ? 1 : 0);
      }
      std::vector<char> alive(links.Size(), 1);
      acc.AddAndPrune(9, alive, 1e300);
      RecordSums(acc, links.Size(), trace);
      trace.alive = alive;
      return trace;
    };
    const Trace scalar = run(SimdLevel::kScalar);
    for (const SimdLevel level : VectorLevels()) {
      EXPECT_TRUE(run(level) == scalar) << SimdLevelName(level);
    }
  }
}

TEST(AccumulatorKernelTest, ScopedLevelPinsAutoDispatchOnThisThread) {
  const SimdLevel before = ResolveSimdLevel(SimdLevel::kAuto);
  {
    const ScopedSimdLevel pin(SimdLevel::kScalar);
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kScalar);
    {
      const ScopedSimdLevel inner(SimdLevel::kAvx512);
      EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto),
                ResolveSimdLevel(SimdLevel::kAvx512));
    }
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kScalar);
  }
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), before);
}

TEST(SimdDispatchTest, EnvOverridesOnlyCap) {
  const SimdLevel hw = SimdLevel::kAvx512;
  EXPECT_EQ(ApplySimdEnv(hw, nullptr), SimdLevel::kAvx512);
  EXPECT_EQ(ApplySimdEnv(hw, "avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(ApplySimdEnv(hw, "scalar"), SimdLevel::kScalar);
  EXPECT_EQ(ApplySimdEnv(hw, "bogus"), SimdLevel::kAvx512);
  // The cap cannot raise above hardware.
  EXPECT_EQ(ApplySimdEnv(SimdLevel::kAvx2, "avx512"), SimdLevel::kAvx2);
}

TEST(SimdDispatchTest, ResolveClampsToHardware) {
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_LE(ResolveSimdLevel(SimdLevel::kAvx512), DetectSimdLevel());
  EXPECT_LE(ResolveSimdLevel(SimdLevel::kAuto), DetectSimdLevel());
  EXPECT_NE(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kAuto);
}

}  // namespace
}  // namespace fadesched::channel
