// Contracts of the slotted dynamics simulator: exact packet conservation
// (including bounded queues, churn-blocked arrivals, and mid-run
// interruption), trace identity across backends, byte-identical replay, the
// bounded-staleness refresh policy, and the queueing behaviour the paper's
// schedulers should show under Bernoulli arrivals.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/params.hpp"
#include "dynamics/slotted_sim.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::dynamics {
namespace {

net::LinkSet MakeUniverse(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  return net::MakeUniformScenario(n, {}, gen);
}

DynamicsOptions BaseOptions() {
  DynamicsOptions options;
  options.num_slots = 200;
  options.warmup_slots = 20;
  options.seed = 7;
  options.arrivals.rate = 0.1;
  return options;
}

channel::ChannelParams PaperParams() {
  channel::ChannelParams params;
  params.alpha = 3.0;
  params.epsilon = 0.01;
  return params;
}

DynamicsOptions BernoulliOptions(std::size_t slots, double rate) {
  DynamicsOptions options;
  options.num_slots = slots;
  options.warmup_slots = slots / 4;
  options.arrivals.family = ArrivalFamily::kBernoulli;
  options.arrivals.rate = rate;
  return options;
}

DynamicsOptions ChurnyOptions() {
  DynamicsOptions options = BaseOptions();
  options.churn.enabled = true;
  options.churn.leave_probability = 0.03;
  options.churn.enter_probability = 0.2;
  options.churn.fade_recheck_probability = 0.05;
  options.churn.drift_steps_per_slot = 1;
  options.churn.mobility.region_size = 1500.0;
  options.refresh.period_slots = 25;
  return options;
}

std::vector<std::string> Trace(const net::LinkSet& universe,
                               const std::string& scheduler,
                               DynamicsOptions options) {
  std::vector<std::string> lines;
  options.slot_observer = [&lines](const SlotRecord& record) {
    lines.push_back(FormatSlotRecord(record));
  };
  RunSlottedSimulation(universe, channel::ChannelParams{}, scheduler,
                       options);
  return lines;
}

TEST(SlottedSimTest, ValidateRejectsDegenerateOptions) {
  DynamicsOptions options = BaseOptions();
  options.num_slots = 0;
  EXPECT_THROW(options.Validate(), util::CheckFailure);

  options = BaseOptions();
  options.warmup_slots = options.num_slots;
  EXPECT_THROW(options.Validate(), util::CheckFailure);
}

TEST(SlottedSimTest, LedgerBalancesOnAQuietRun) {
  const net::LinkSet universe = MakeUniverse(20, 1);
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", BaseOptions());
  EXPECT_TRUE(result.ledger.Balanced());
  EXPECT_GT(result.ledger.arrivals, 0u);
  EXPECT_GT(result.ledger.delivered, 0u);
  EXPECT_EQ(result.ledger.dropped_blocked, 0u);   // no churn
  EXPECT_EQ(result.ledger.dropped_overflow, 0u);  // unbounded queues
  EXPECT_EQ(result.slots_run, BaseOptions().num_slots);
  EXPECT_FALSE(result.interrupted);
}

// Bounded queues under overload drop the excess — and the drops are
// accounted, not lost.
TEST(SlottedSimTest, LedgerBalancesWithCapacityDrops) {
  const net::LinkSet universe = MakeUniverse(25, 2);
  DynamicsOptions options = BaseOptions();
  options.arrivals.rate = 0.9;  // far beyond any schedule's service rate
  options.queue_capacity = 2;
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", options);
  EXPECT_TRUE(result.ledger.Balanced());
  EXPECT_GT(result.ledger.dropped_overflow, 0u);
}

// Churn blocks arrivals at handed-off links; the ledger still balances
// and the churn counters surface in the result.
TEST(SlottedSimTest, LedgerBalancesUnderChurn) {
  const net::LinkSet universe = MakeUniverse(30, 3);
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "fading_greedy", ChurnyOptions());
  EXPECT_TRUE(result.ledger.Balanced());
  EXPECT_GT(result.ledger.dropped_blocked, 0u);
  EXPECT_GT(result.links_left, 0u);
  EXPECT_GT(result.links_entered, 0u);
  EXPECT_GT(result.fade_rechecks, 0u);
}

// The SIGTERM path of the conservation property: stopping mid-run leaves
// the ledger exactly balanced with the interrupted flag set.
TEST(SlottedSimTest, InterruptedRunKeepsTheLedgerBalanced) {
  const net::LinkSet universe = MakeUniverse(20, 4);
  DynamicsOptions options = BaseOptions();
  std::size_t polls = 0;
  options.stop_requested = [&polls]() { return ++polls > 60; };
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "rle", options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_LT(result.slots_run, options.num_slots);
  EXPECT_TRUE(result.ledger.Balanced());
  EXPECT_GT(result.ledger.residual, 0u);
}

// Same inputs → byte-identical per-slot trace (the determinism contract
// the BENCH rows and the fuzzer's replay oracle stand on).
TEST(SlottedSimTest, ReplayTraceIsByteIdentical) {
  const net::LinkSet universe = MakeUniverse(24, 5);
  const DynamicsOptions options = ChurnyOptions();
  const std::vector<std::string> first = Trace(universe, "ldp", options);
  const std::vector<std::string> second = Trace(universe, "ldp", options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "slot " << i;
  }
}

// The backend is a pure optimization at simulator level too: the
// reference calculator and the tables engine produce byte-identical
// traces.
TEST(SlottedSimTest, CalculatorAndTablesTracesAreByteIdentical) {
  const net::LinkSet universe = MakeUniverse(28, 6);
  for (const char* scheduler : {"ldp", "fading_greedy", "approx_diversity"}) {
    DynamicsOptions options = ChurnyOptions();
    options.backend = channel::FactorBackend::kCalculator;
    const std::vector<std::string> calculator =
        Trace(universe, scheduler, options);
    options.backend = channel::FactorBackend::kTables;
    const std::vector<std::string> tables = Trace(universe, scheduler, options);
    ASSERT_EQ(calculator.size(), tables.size()) << scheduler;
    for (std::size_t i = 0; i < calculator.size(); ++i) {
      ASSERT_EQ(calculator[i], tables[i]) << scheduler << " slot " << i;
    }
  }
}

// Periodic refresh fires on its configured cadence; with both triggers
// off the initial snapshot serves the whole run.
TEST(SlottedSimTest, RefreshPolicyFiresOnSchedule) {
  const net::LinkSet universe = MakeUniverse(20, 8);
  DynamicsOptions options = BaseOptions();
  options.num_slots = 100;
  options.refresh.period_slots = 10;
  const DynamicsResult periodic = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", options);
  EXPECT_EQ(periodic.snapshot_refreshes, 9u);  // slots 10,20,...,90

  options.refresh.period_slots = 0;
  const DynamicsResult frozen = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", options);
  EXPECT_EQ(frozen.snapshot_refreshes, 0u);
}

// The churn-budget trigger refreshes once enough staleness events
// (fading rechecks) accumulate.
TEST(SlottedSimTest, ChurnBudgetTriggersRefreshes) {
  const net::LinkSet universe = MakeUniverse(30, 9);
  DynamicsOptions options = ChurnyOptions();
  options.refresh.period_slots = 0;
  options.refresh.churn_budget = 5;
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", options);
  EXPECT_GT(result.snapshot_refreshes, 0u);
  EXPECT_GT(result.fade_rechecks, result.snapshot_refreshes);
}

// An empty universe is a no-op, not a crash.
TEST(SlottedSimTest, EmptyUniverseRunsToCompletion) {
  const net::LinkSet universe;
  const DynamicsResult result = RunSlottedSimulation(
      universe, channel::ChannelParams{}, "ldp", BaseOptions());
  EXPECT_EQ(result.slots_run, BaseOptions().num_slots);
  EXPECT_TRUE(result.ledger.Balanced());
  EXPECT_EQ(result.ledger.arrivals, 0u);
}

TEST(SlottedSimTest, ZeroArrivalsNothingHappens) {
  const net::LinkSet universe = MakeUniverse(50, 1);
  const DynamicsResult result = RunSlottedSimulation(
      universe, PaperParams(), "rle", BernoulliOptions(200, 0.0));
  EXPECT_EQ(result.ledger.arrivals, 0u);
  EXPECT_EQ(result.scheduled_transmissions, 0u);
  EXPECT_EQ(result.scheduled_slots, 0u);
  EXPECT_DOUBLE_EQ(result.backlog.Mean(), 0.0);
}

// Per-transmission failure stays near the paper's outage budget ε.
TEST(SlottedSimTest, FadingResistantSchedulerRarelyFails) {
  const net::LinkSet universe = MakeUniverse(100, 4);
  const DynamicsResult result = RunSlottedSimulation(
      universe, PaperParams(), "rle", BernoulliOptions(500, 0.01));
  ASSERT_GT(result.scheduled_transmissions, 0u);
  EXPECT_LT(result.FailureRate(), 0.02);
}

TEST(SlottedSimTest, BaselineFailsMoreOftenThanRle) {
  const net::LinkSet universe = MakeUniverse(200, 5);
  const DynamicsOptions options = BernoulliOptions(400, 0.05);
  const DynamicsResult rle =
      RunSlottedSimulation(universe, PaperParams(), "rle", options);
  const DynamicsResult baseline = RunSlottedSimulation(
      universe, PaperParams(), "approx_diversity", options);
  EXPECT_GT(baseline.FailureRate(), 3.0 * std::max(rle.FailureRate(), 1e-4));
}

TEST(SlottedSimTest, DelayAtLeastZeroAndBoundedBySimLength) {
  const net::LinkSet universe = MakeUniverse(80, 9);
  const DynamicsOptions options = BernoulliOptions(300, 0.02);
  const DynamicsResult result =
      RunSlottedSimulation(universe, PaperParams(), "rle", options);
  ASSERT_GT(result.delay_slots.Count(), 0u);
  EXPECT_GE(result.delay_slots.Min(), 0.0);
  EXPECT_LT(result.delay_slots.Max(),
            static_cast<double>(options.num_slots));
}

TEST(SlottedSimTest, HigherLoadMeansLongerQueues) {
  const net::LinkSet universe = MakeUniverse(100, 6);
  const DynamicsResult light = RunSlottedSimulation(
      universe, PaperParams(), "rle", BernoulliOptions(400, 0.005));
  const DynamicsResult heavy = RunSlottedSimulation(
      universe, PaperParams(), "rle", BernoulliOptions(400, 0.08));
  EXPECT_GT(heavy.backlog.Mean(), light.backlog.Mean());
}

// fading_greedy schedules several times as many links per slot as LDP;
// under the same load its queues must drain faster.
TEST(SlottedSimTest, BetterSchedulerGivesShorterDelay) {
  const net::LinkSet universe = MakeUniverse(150, 7);
  const DynamicsOptions options = BernoulliOptions(500, 0.03);
  const DynamicsResult greedy =
      RunSlottedSimulation(universe, PaperParams(), "fading_greedy", options);
  const DynamicsResult ldp =
      RunSlottedSimulation(universe, PaperParams(), "ldp", options);
  EXPECT_LT(greedy.backlog.Mean(), ldp.backlog.Mean());
  EXPECT_LT(greedy.delay_slots.Mean(), ldp.delay_slots.Mean());
}

}  // namespace
}  // namespace fadesched::dynamics
