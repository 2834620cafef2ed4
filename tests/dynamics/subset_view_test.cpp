// The warm subset view is the tentpole contract of the dynamics
// subsystem: MakeSubsetEngineView(parent, subset, ids) must answer every
// query bit-identically to a cold engine built over the same subset, so
// per-slot re-scheduling on the backlogged subset is a pure
// optimization — never a semantic change.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "channel/batch_interference.hpp"
#include "channel/params.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"

namespace fadesched::channel {
namespace {

net::LinkSet MakeUniverse(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  return net::MakeUniformScenario(n, {}, gen);
}

std::vector<net::LinkId> EveryThirdLink(std::size_t n) {
  std::vector<net::LinkId> ids;
  for (net::LinkId i = 1; i < n; i += 3) ids.push_back(i);
  return ids;
}

class SubsetViewBackendTest
    : public testing::TestWithParam<FactorBackend> {};

// Every query surface — Factor, Affectance, NoiseFactor, SumFactor — is
// bit-identical between the O(m) warm view and an O(m²) cold rebuild.
TEST_P(SubsetViewBackendTest, QueriesAreBitIdenticalToColdSubsetBuild) {
  const net::LinkSet universe = MakeUniverse(60, 17);
  const ChannelParams params;
  EngineOptions options;
  options.backend = GetParam();

  const auto parent = std::make_shared<const InterferenceEngine>(
      universe, params, options);
  const std::vector<net::LinkId> ids = EveryThirdLink(universe.Size());
  const net::LinkSet subset = universe.Subset(ids);

  const auto view = MakeSubsetEngineView(parent, subset, ids);
  const InterferenceEngine cold(subset, params, options);

  ASSERT_EQ(view->Size(), cold.Size());
  EXPECT_TRUE(view->IsSubsetView());
  EXPECT_FALSE(cold.IsSubsetView());

  std::vector<net::LinkId> all(subset.Size());
  for (net::LinkId i = 0; i < subset.Size(); ++i) all[i] = i;
  for (net::LinkId j = 0; j < subset.Size(); ++j) {
    ASSERT_EQ(view->NoiseFactor(j), cold.NoiseFactor(j)) << "victim " << j;
    ASSERT_EQ(view->SumFactor(all, j), cold.SumFactor(all, j))
        << "victim " << j;
    for (net::LinkId i = 0; i < subset.Size(); ++i) {
      ASSERT_EQ(view->Factor(i, j), cold.Factor(i, j))
          << "factor (" << i << ", " << j << ")";
      ASSERT_EQ(view->Affectance(i, j), cold.Affectance(i, j))
          << "affectance (" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SubsetViewBackendTest,
                         testing::Values(FactorBackend::kCalculator,
                                         FactorBackend::kTables,
                                         FactorBackend::kMatrix),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case FactorBackend::kCalculator:
                               return "Calculator";
                             case FactorBackend::kTables: return "Tables";
                             case FactorBackend::kMatrix: return "Matrix";
                           }
                           return "Unknown";
                         });

// View-of-a-view collapses to the root parent (no remap chains), and the
// composed remap still answers bit-identically to a cold build over the
// doubly-restricted subset.
TEST(SubsetViewTest, NestedViewsCollapseToTheRootParent) {
  const net::LinkSet universe = MakeUniverse(48, 31);
  const ChannelParams params;
  EngineOptions options;
  options.backend = FactorBackend::kMatrix;

  const auto root = std::make_shared<const InterferenceEngine>(
      universe, params, options);
  const std::vector<net::LinkId> outer_ids = EveryThirdLink(universe.Size());
  const net::LinkSet outer = universe.Subset(outer_ids);
  const auto outer_view = MakeSubsetEngineView(root, outer, outer_ids);

  std::vector<net::LinkId> inner_ids;
  for (net::LinkId i = 0; i < outer.Size(); i += 2) inner_ids.push_back(i);
  const net::LinkSet inner = outer.Subset(inner_ids);
  const auto inner_view = MakeSubsetEngineView(outer_view, inner, inner_ids);

  ASSERT_TRUE(inner_view->IsSubsetView());
  EXPECT_EQ(inner_view->Parent(), root.get());
  for (net::LinkId i = 0; i < inner.Size(); ++i) {
    EXPECT_EQ(inner_view->ParentId(i), outer_ids[inner_ids[i]]);
  }

  const InterferenceEngine cold(inner, params, options);
  for (net::LinkId j = 0; j < inner.Size(); ++j) {
    for (net::LinkId i = 0; i < inner.Size(); ++i) {
      ASSERT_EQ(inner_view->Factor(i, j), cold.Factor(i, j))
          << "factor (" << i << ", " << j << ")";
    }
  }
}

// End-to-end schedule identity: every engine-aware scheduler, handed the
// warm view through EngineOptions::shared, emits the same schedule as a
// cold per-call rebuild. This is the property the dynamic fuzzer's
// warm-vs-cold oracle checks at scale.
TEST(SubsetViewTest, SchedulersThroughTheViewMatchColdBuilds) {
  const net::LinkSet universe = MakeUniverse(70, 41);
  const ChannelParams params;
  const std::vector<net::LinkId> ids = EveryThirdLink(universe.Size());
  const net::LinkSet subset = universe.Subset(ids);

  const char* const kSchedulers[] = {"ldp",    "rle",        "fading_greedy",
                                     "approx_diversity", "approx_logn",
                                     "graph_greedy"};
  for (const FactorBackend backend :
       {FactorBackend::kTables, FactorBackend::kMatrix}) {
    EngineOptions options;
    options.backend = backend;
    const auto parent = std::make_shared<const InterferenceEngine>(
        universe, params, options);
    const auto view = MakeSubsetEngineView(parent, subset, ids);
    for (const char* name : kSchedulers) {
      const net::Schedule cold =
          sched::MakeScheduler(name, options)->Schedule(subset, params)
              .schedule;
      EngineOptions warm_options = view->Options();
      warm_options.shared = view;
      const net::Schedule warm =
          sched::MakeScheduler(name, warm_options)->Schedule(subset, params)
              .schedule;
      ASSERT_EQ(warm, cold)
          << "scheduler " << name << " backend "
          << static_cast<int>(backend);
    }
  }
}

}  // namespace
}  // namespace fadesched::channel
