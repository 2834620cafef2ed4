#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace fadesched::sim {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.algorithms = {"ldp", "rle"};
  config.num_seeds = 3;
  config.trials = 200;
  return config;
}

TEST(ExperimentTest, ProducesOneSummaryPerAlgorithm) {
  util::ThreadPool pool(2);
  ExperimentPoint point;
  point.num_links = 50;
  const auto summaries = RunExperimentPoint(point, SmallConfig(), pool);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].algorithm, "ldp");
  EXPECT_EQ(summaries[1].algorithm, "rle");
}

TEST(ExperimentTest, EverySeedContributesOneSample) {
  util::ThreadPool pool(1);
  ExperimentPoint point;
  point.num_links = 40;
  const auto summaries = RunExperimentPoint(point, SmallConfig(), pool);
  for (const auto& s : summaries) {
    EXPECT_EQ(s.scheduled_links.Count(), 3u);
    EXPECT_EQ(s.measured_failed.Count(), 3u);
    EXPECT_EQ(s.runtime_ms.Count(), 3u);
  }
}

TEST(ExperimentTest, FadingResistantAlgorithmsNearZeroFailures) {
  util::ThreadPool pool(2);
  ExperimentPoint point;
  point.num_links = 150;
  const auto summaries = RunExperimentPoint(point, SmallConfig(), pool);
  for (const auto& s : summaries) {
    // Feasible ⇒ per-link failure ≤ ε = 1% ⇒ expected failures well under
    // 1 per slot for the handful of scheduled links.
    EXPECT_LT(s.expected_failed.Mean(), 0.5) << s.algorithm;
  }
}

TEST(ExperimentTest, DeterministicForBaseSeed) {
  util::ThreadPool pool(2);
  ExperimentPoint point;
  point.num_links = 60;
  const auto a = RunExperimentPoint(point, SmallConfig(), pool);
  const auto b = RunExperimentPoint(point, SmallConfig(), pool);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].scheduled_links.Mean(), b[i].scheduled_links.Mean());
    EXPECT_DOUBLE_EQ(a[i].measured_failed.Mean(), b[i].measured_failed.Mean());
  }
}

TEST(ExperimentTest, EmptyAlgorithmListRejected) {
  util::ThreadPool pool(1);
  ExperimentPoint point;
  ExperimentConfig config;
  config.algorithms = {};
  EXPECT_THROW(RunExperimentPoint(point, config, pool), util::CheckFailure);
}

TEST(ExperimentTest, UnknownAlgorithmRejected) {
  util::ThreadPool pool(1);
  ExperimentPoint point;
  ExperimentConfig config;
  config.algorithms = {"made_up"};
  EXPECT_THROW(RunExperimentPoint(point, config, pool), util::CheckFailure);
}

TEST(SummaryTableTest, HeaderShape) {
  const util::CsvTable table = MakeSummaryTable("num_links");
  EXPECT_EQ(table.Header()[0], "num_links");
  EXPECT_TRUE(table.HasColumn("algorithm"));
  EXPECT_TRUE(table.HasColumn("failed_mean"));
  EXPECT_TRUE(table.HasColumn("throughput_mean"));
  EXPECT_TRUE(table.HasColumn("expected_failed"));
}

TEST(SummaryTableTest, AppendRowsOnePerAlgorithm) {
  util::ThreadPool pool(2);
  ExperimentPoint point;
  point.num_links = 30;
  const auto summaries = RunExperimentPoint(point, SmallConfig(), pool);
  util::CsvTable table = MakeSummaryTable("x");
  AppendSummaryRows(table, 30.0, summaries);
  ASSERT_EQ(table.NumRows(), 2u);
  EXPECT_EQ(table.Cell(0, "x"), "30");
  EXPECT_EQ(table.Cell(0, "algorithm"), "ldp");
  EXPECT_NO_THROW((void)table.CellAsDouble(0, "failed_mean"));
  EXPECT_NO_THROW((void)table.CellAsDouble(1, "throughput_mean"));
}

}  // namespace
}  // namespace fadesched::sim
