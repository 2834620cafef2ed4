// RLE, ApproxDiversity and FadingGreedy at every SIMD tier and backend
// against golden schedules captured with the scalar accumulator loop that
// preceded the vector tiers and the shared elimination scan
// (golden/elimination_schedules.txt, cases from golden_cases.hpp plus the
// fuzz corpus).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "channel/simd_dispatch.hpp"
#include "golden_cases.hpp"
#include "sched/approx_diversity.hpp"
#include "sched/greedy.hpp"
#include "sched/rle.hpp"
#include "testing/corpus.hpp"
#include "util/check.hpp"

namespace fadesched::sched {
namespace {

/// "case scheduler" → the golden line's ids (or "throws").
std::map<std::string, std::string> LoadGolden() {
  std::ifstream in(FADESCHED_GOLDEN_SCHEDULES);
  EXPECT_TRUE(in.good()) << "cannot open " << FADESCHED_GOLDEN_SCHEDULES;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name;
    std::string scheduler;
    row >> name >> scheduler;
    std::string ids;
    std::getline(row, ids);
    golden[name + " " + scheduler] = ids;
  }
  return golden;
}

std::vector<golden::NamedCase> AllCases() {
  std::vector<golden::NamedCase> cases = golden::GoldenCases();
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FADESCHED_TEST_CORPUS_DIR)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) {
    cases.push_back({"corpus-" + std::filesystem::path(file).stem().string(),
                     testing::LoadScenarioFile(file)});
  }
  return cases;
}

std::string Ids(const Scheduler& scheduler, const testing::ScenarioCase& c) {
  std::string ids;
  try {
    for (const net::LinkId id :
         scheduler.Schedule(c.links, c.params).schedule) {
      ids += " " + std::to_string(id);
    }
  } catch (const util::CheckFailure&) {
    ids = " throws";
  }
  return ids;
}

TEST(EliminationGoldenTest, EveryTierAndBackendGivesTheGoldenSchedules) {
  const std::map<std::string, std::string> golden = LoadGolden();
  const std::vector<golden::NamedCase> cases = AllCases();
  ASSERT_EQ(golden.size(), 3 * cases.size());

  std::vector<channel::SimdLevel> levels{channel::SimdLevel::kScalar};
  for (const channel::SimdLevel level :
       {channel::SimdLevel::kAvx2, channel::SimdLevel::kAvx512}) {
    if (channel::ResolveSimdLevel(level) == level) levels.push_back(level);
  }
  for (const channel::FactorBackend backend :
       {channel::FactorBackend::kTables, channel::FactorBackend::kCalculator}) {
    channel::EngineOptions engine;
    engine.backend = backend;
    RleOptions rle;
    rle.interference = engine;
    ApproxDiversityOptions diversity;
    diversity.interference = engine;
    FadingGreedyOptions greedy;
    greedy.interference = engine;
    const std::unique_ptr<Scheduler> schedulers[] = {
        std::make_unique<RleScheduler>(rle),
        std::make_unique<ApproxDiversityScheduler>(diversity),
        std::make_unique<FadingGreedyScheduler>(greedy)};
    for (const channel::SimdLevel level : levels) {
      const channel::ScopedSimdLevel pin(level);
      for (const golden::NamedCase& c : cases) {
        for (const auto& scheduler : schedulers) {
          const std::string key = c.name + " " + scheduler->Name();
          const auto want = golden.find(key);
          ASSERT_NE(want, golden.end()) << "no golden line for " << key;
          EXPECT_EQ(Ids(*scheduler, c.scenario), want->second)
              << key << " backend=" << static_cast<int>(backend)
              << " tier=" << channel::SimdLevelName(level);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fadesched::sched
