// The cases behind golden/elimination_schedules.txt: the schedules RLE,
// ApproxDiversity and FadingGreedy gave on them with the scalar
// accumulator loop, before the vector tiers and the shared elimination
// scan. elimination_golden_test replays them at every SIMD tier.
//
// Families: uniform, clustered, near-far and colinear layouts at the
// quarter-integer α the accumulator lanes evaluate (2.5, 3, 4), sized so
// both lane widths see full chunks and tails, a third of them with ambient
// noise; then the fuzzer's adversarial cases with wide parameter ranges
// (mostly generic α, where the engine computes terms and the lanes only
// accumulate); then two N=2000 uniform layouts on the benchmark's 500×500
// region and one layout of exact duplicate links, captured before the scan
// dropped its length sort and spatial index.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "testing/corpus.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::sched::golden {

struct NamedCase {
  std::string name;
  testing::ScenarioCase scenario;
};

inline std::vector<NamedCase> GoldenCases() {
  std::vector<NamedCase> cases;
  const char* const kFamilies[] = {"uniform", "clustered", "near_far",
                                   "colinear"};
  const double kAlphas[] = {2.5, 3.0, 4.0};
  const std::size_t kSizes[] = {37, 150, 301};
  for (std::uint64_t f = 0; f < 4; ++f) {
    for (std::uint64_t a = 0; a < 3; ++a) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::size_t n = kSizes[(f + a + seed) % 3];
        const double region =
            500.0 * std::sqrt(static_cast<double>(n) / 300.0);
        rng::Xoshiro256 gen(seed * 100 + f * 10 + a);
        testing::ScenarioCase c;
        c.params.alpha = kAlphas[a];
        if (seed == 3) c.params.noise_power = 1e-8;
        switch (f) {
          case 0: {
            net::UniformScenarioParams p;
            p.region_size = region;
            c.links = net::MakeUniformScenario(n, p, gen);
            break;
          }
          case 1: {
            net::ClusteredScenarioParams p;
            p.region_size = region;
            c.links = net::MakeClusteredScenario(n, p, gen);
            break;
          }
          case 2: {
            net::NearFarScenarioParams p;
            p.region_size = region;
            c.links = net::MakeNearFarScenario(n, p, gen);
            break;
          }
          default: {
            net::ColinearScenarioParams p;
            p.region_size = region;
            c.links = net::MakeColinearScenario(n, p, gen);
            break;
          }
        }
        cases.push_back({std::string(kFamilies[f]) + "-a" +
                             std::to_string(kAlphas[a]).substr(0, 3) + "-s" +
                             std::to_string(seed) + "-n" + std::to_string(n),
                         std::move(c)});
      }
    }
  }
  testing::FuzzerOptions options;
  options.max_links = 160;
  const testing::ScenarioFuzzer fuzzer(21, options);
  for (std::uint64_t index = 0; index < 24; ++index) {
    cases.push_back({"fuzz-21-" + std::to_string(index), fuzzer.Case(index)});
  }
  // The benchmark's size and layout: N=2000 on a 500×500 region at the
  // paper's defaults, where most links die within a few picks.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    rng::Xoshiro256 gen(2000 + seed);
    testing::ScenarioCase c;
    c.links = net::MakeUniformScenario(2000, net::UniformScenarioParams{}, gen);
    cases.push_back({"uniform500-s" + std::to_string(seed) + "-n2000",
                     std::move(c)});
  }
  // Exact duplicate links: every tie in (length, id) order is an id tie.
  rng::Xoshiro256 gen(301);
  testing::ScenarioCase duplicates;
  duplicates.links = net::MakeDuplicatePositionScenario(
      301, net::DuplicatePositionScenarioParams{}, gen);
  cases.push_back({"duplicate-s1-n301", std::move(duplicates)});
  return cases;
}

}  // namespace fadesched::sched::golden
