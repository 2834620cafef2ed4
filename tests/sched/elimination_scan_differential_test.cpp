// sched::EliminationScan, the survivor-list scan behind RLE and
// ApproxDiversity, against a reference copy of the scan it replaced: visit
// the links by ascending (length, id), skip the dead ones, and run rule A
// as a brute-force loop over every sender with the same inclusive
// predicate the spatial index applied. Pick sequences are compared in pick
// order, before FinalizeResult sorts them, on kTables and kCalculator and
// for both quantities. An input that throws must throw the same exception
// type with the same message on both sides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <typeinfo>
#include <vector>

#include "channel/batch_interference.hpp"
#include "geom/vec2.hpp"
#include "net/scenario.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/approx_diversity.hpp"
#include "sched/constants.hpp"
#include "sched/elimination.hpp"
#include "sched/rle.hpp"
#include "testing/fuzzer.hpp"
#include "util/check.hpp"

namespace fadesched::sched {
namespace {

using Quantity = channel::IncrementalFeasibility::Quantity;

net::Schedule ReferenceScan(const net::LinkSet& links,
                            const channel::InterferenceEngine& engine,
                            const EliminationRule& rule) {
  const std::size_t n = links.Size();
  std::vector<net::LinkId> order(n);
  std::iota(order.begin(), order.end(), net::LinkId{0});
  std::sort(order.begin(), order.end(), [&](net::LinkId a, net::LinkId b) {
    if (links.Length(a) != links.Length(b)) {
      return links.Length(a) < links.Length(b);
    }
    return a < b;
  });
  channel::IncrementalFeasibility acc(engine, rule.quantity);
  std::vector<char> alive(n, 1);
  for (net::LinkId j = 0; j < n; ++j) {
    if (acc.Sum(j) > rule.budget) alive[j] = 0;
  }
  net::Schedule picked;
  for (const net::LinkId i : order) {
    if (!alive[i]) continue;
    picked.push_back(i);
    alive[i] = 0;
    const double radius = rule.c1 * links.Length(i);
    FS_CHECK_MSG(radius >= 0.0, "negative query radius");
    const double r2 = radius * radius;
    for (net::LinkId j = 0; j < n; ++j) {
      if (geom::SquaredDistance(links.Sender(j), links.Receiver(i)) <= r2) {
        alive[j] = 0;
      }
    }
    acc.AddAndPrune(i, alive, rule.budget);
  }
  return picked;
}

struct Input {
  std::string name;
  net::LinkSet links;
  channel::ChannelParams params;
  double c1_scale = 1.0;
};

// The rules RleScheduler and ApproxDiversityScheduler hand the scan, with
// c1 scaled like RleOptions::c1_scale.
EliminationRule RuleFor(const Input& in, Quantity quantity) {
  channel::ChannelParams effective = in.params;
  effective.gamma_th *= in.links.TxPowerRatio(in.params.tx_power);
  if (quantity == Quantity::kFactor) {
    const double c2 = RleOptions{}.c2;
    return {quantity, RleC1(effective, c2) * in.c1_scale,
            c2 * in.params.GammaEpsilon()};
  }
  const double c2 = ApproxDiversityOptions{}.c2;
  return {quantity, ApproxDiversityC1(effective, c2) * in.c1_scale, c2};
}

// The picks, or the exception's type and message.
std::string Outcome(const std::function<net::Schedule()>& scan) {
  try {
    std::string ids;
    for (const net::LinkId id : scan()) ids += " " + std::to_string(id);
    return ids;
  } catch (const std::exception& e) {
    return std::string("throws ") + typeid(e).name() + ": " + e.what();
  }
}

// Runs both scans on every backend and quantity; returns how many
// comparisons threw, so a test can assert its inputs reach the error path.
std::size_t ExpectSamePicks(const Input& in) {
  std::size_t threw = 0;
  for (const channel::FactorBackend backend :
       {channel::FactorBackend::kTables, channel::FactorBackend::kCalculator}) {
    channel::EngineOptions options;
    options.backend = backend;
    const channel::InterferenceEngine engine(in.links, in.params, options);
    for (const Quantity quantity : {Quantity::kFactor, Quantity::kAffectance}) {
      const EliminationRule rule = RuleFor(in, quantity);
      const std::string want =
          Outcome([&] { return ReferenceScan(in.links, engine, rule); });
      EXPECT_EQ(Outcome([&] { return EliminationScan(in.links, engine, rule); }),
                want)
          << in.name << " backend=" << static_cast<int>(backend)
          << " quantity=" << static_cast<int>(quantity);
      threw += want.starts_with("throws");
    }
  }
  return threw;
}

net::LinkSet Family(const std::string& family, std::size_t n,
                    std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  if (family == "uniform") return net::MakeUniformScenario(n, {}, gen);
  if (family == "clustered") return net::MakeClusteredScenario(n, {}, gen);
  if (family == "near_far") return net::MakeNearFarScenario(n, {}, gen);
  if (family == "colinear") return net::MakeColinearScenario(n, {}, gen);
  return net::MakeDuplicatePositionScenario(n, {}, gen);
}

TEST(EliminationScanDifferentialTest, FuzzerCasesPickLikeTheSortedScan) {
  testing::FuzzerOptions options;
  options.max_links = 160;
  const testing::ScenarioFuzzer fuzzer(24, options);
  for (std::uint64_t index = 0; index < 150; ++index) {
    const testing::ScenarioCase c = fuzzer.Case(index);
    ExpectSamePicks({c.description, c.links, c.params});
  }
}

TEST(EliminationScanDifferentialTest, EveryFamilyAtEverySize) {
  const char* const kFamilies[] = {"uniform", "clustered", "near_far",
                                   "colinear", "duplicate_position"};
  const std::size_t kSizes[] = {1, 2, 7, 8, 9, 600, 2000};
  std::uint64_t seed = 1;
  for (const char* family : kFamilies) {
    for (const std::size_t n : kSizes) {
      Input in{std::string(family) + "-n" + std::to_string(n),
               Family(family, n, seed++), {}};
      ASSERT_EQ(in.links.Size(), n);
      ExpectSamePicks(in);
    }
  }
}

// Every link is exactly 10 long, and each position is used twice, so every
// pick is a length tie that only the id breaks.
TEST(EliminationScanDifferentialTest, EqualLengthsBreakTiesById) {
  net::LinkSet links;
  const geom::Vec2 kDirections[] = {{10, 0}, {0, 10}, {-10, 0}, {0, -10}};
  for (int copy = 0; copy < 2; ++copy) {
    for (int k = 0; k < 300; ++k) {
      const geom::Vec2 sender{37.0 * (k % 17), 41.0 * (k / 17)};
      links.Add({sender, sender + kDirections[k % 4]});
    }
  }
  ExpectSamePicks({"equal-lengths", links, {}});
}

// Ambient noise large enough that the longer links fail on noise alone and
// never enter the scan; the largest level leaves no link at all.
TEST(EliminationScanDifferentialTest, NoiseDropsLinksUpFront) {
  rng::Xoshiro256 gen(5);
  const net::LinkSet links = net::MakeUniformScenario(600, {}, gen);
  for (const double noise : {1e-6, 1e-5, 3e-5, 1.0}) {
    Input in{"noise-" + std::to_string(noise), links, {}};
    in.params.noise_power = noise;
    const channel::InterferenceEngine engine(in.links, in.params);
    const channel::IncrementalFeasibility acc(engine);
    const EliminationRule rule = RuleFor(in, Quantity::kFactor);
    std::size_t dropped = 0;
    for (net::LinkId j = 0; j < links.Size(); ++j) {
      dropped += acc.Sum(j) > rule.budget;
    }
    EXPECT_GT(dropped, 0u) << in.name;
    ExpectSamePicks(in);
  }
}

TEST(EliminationScanDifferentialTest, TinyAndHugeClearOutRadii) {
  testing::FuzzerOptions options;
  options.max_links = 120;
  const testing::ScenarioFuzzer fuzzer(25, options);
  for (const double scale : {1e-6, 1e3}) {
    rng::Xoshiro256 gen(6);
    ExpectSamePicks({"uniform-600-c1x" + std::to_string(scale),
                     net::MakeUniformScenario(600, {}, gen), {}, scale});
    for (std::uint64_t index = 0; index < 20; ++index) {
      const testing::ScenarioCase c = fuzzer.Case(index);
      ExpectSamePicks({c.description, c.links, c.params, scale});
    }
  }
}

// Per-link transmit powers (a tx_power column), a quarter of them 0, which
// means the default power.
TEST(EliminationScanDifferentialTest, PerLinkTransmitPowers) {
  rng::Xoshiro256 gen(8);
  const net::LinkSet uniform = net::MakeUniformScenario(600, {}, gen);
  net::LinkSet links;
  for (net::LinkId i = 0; i < uniform.Size(); ++i) {
    net::Link link = uniform.At(i);
    link.tx_power =
        i % 4 == 0 ? 0.0 : rng::UniformRange(gen, 0.5, 4.0);
    links.Add(link);
  }
  ExpectSamePicks({"tx-power", links, {}});
}

// One 5-unit link near the origin and links whose coordinates are around
// 1e30, where floor(x / cell) of a grid sized to the short link no longer
// fits in an int64.
TEST(EliminationScanDifferentialTest, CoordinatesBeyondAnIntegerGrid) {
  net::LinkSet links;
  links.Add({{0.0, 0.0}, {5.0, 0.0}});
  for (int k = 0; k < 40; ++k) {
    const geom::Vec2 sender{1e30 + 1e28 * k, 1e30 - 3e28 * (k % 5)};
    links.Add({sender, sender + geom::Vec2{0.0, 1e28 * (1 + k % 3)}});
  }
  ExpectSamePicks({"far-1e30", links, {}});
  ExpectSamePicks({"far-1e30-c1x1e3", links, {}, 1e3});
}

// A pick's sender sits on a live link's receiver, and c1 is too small for
// rule A to clear it, so rule B hits the coincident pair: both scans must
// raise the same domain error at the same pick.
TEST(EliminationScanDifferentialTest, DomainErrorsMatch) {
  net::LinkSet links;
  links.Add({{0.0, 0.0}, {5.0, 0.0}});
  links.Add({{100.0, 0.0}, {0.0, 0.0}});
  links.Add({{300.0, 0.0}, {307.0, 0.0}});
  EXPECT_GT(ExpectSamePicks({"coincident", links, {}, 1e-6}), 0u);
}

// An infinite c1 (reachable through RLE when the per-link powers' max/min
// ratio overflows) clears every survivor at the first pick. The spatial
// index the old scan built could not size its grid from it and threw.
TEST(EliminationScanDifferentialTest, InfiniteC1KeepsOnlyTheFirstPick) {
  rng::Xoshiro256 gen(10);
  const net::LinkSet links = net::MakeUniformScenario(50, {}, gen);
  const channel::InterferenceEngine engine(links, {});
  const double inf = std::numeric_limits<double>::infinity();
  const EliminationRule rule{Quantity::kFactor, inf, 1.0};
  const std::string want =
      Outcome([&] { return ReferenceScan(links, engine, rule); });
  EXPECT_EQ(Outcome([&] { return EliminationScan(links, engine, rule); }),
            want);
  const net::Schedule picks = EliminationScan(links, engine, rule);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(links.Length(picks[0]), links.MinLength());

  net::LinkSet powered;
  powered.Add({{0.0, 0.0}, {5.0, 0.0}, 1.0, 1e-300});
  powered.Add({{100.0, 0.0}, {108.0, 0.0}, 1.0, 1e300});
  powered.Add({{300.0, 0.0}, {310.0, 0.0}, 1.0, 1.0});
  const Input in{"power-ratio-overflow", powered, {}};
  ASSERT_EQ(RuleFor(in, Quantity::kFactor).c1, inf);
  ExpectSamePicks(in);
}

TEST(EliminationScanDifferentialTest, NegativeOrNanC1IsRejectedAtThePick) {
  rng::Xoshiro256 gen(9);
  const net::LinkSet links = net::MakeUniformScenario(50, {}, gen);
  const channel::InterferenceEngine engine(links, {});
  for (const double c1 : {-1.0, std::nan("")}) {
    const EliminationRule rule{Quantity::kFactor, c1, 1.0};
    const std::string want =
        Outcome([&] { return ReferenceScan(links, engine, rule); });
    EXPECT_NE(want.find("negative query radius"), std::string::npos) << want;
    EXPECT_EQ(Outcome([&] { return EliminationScan(links, engine, rule); }),
              want);
  }
}

}  // namespace
}  // namespace fadesched::sched
