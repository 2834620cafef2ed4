// Determinism audit (two layers):
//
// 1. A source-tree scan: no production code may draw entropy from the
//    environment — std::random_device, wall-clock seeding, rand()/srand().
//    Every randomized component takes an explicit seed (rng/xoshiro256),
//    which is what makes same-seed replay, the fuzzer's pure Case(index),
//    and the corpus format meaningful. steady_clock is allowed only in
//    the sanctioned timing utilities (deadlines and stopwatches), which
//    measure durations and never feed schedules.
// 2. A behavioural check: every registered scheduler, run twice from
//    fresh instances on the same input, returns byte-identical schedules.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/registry.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched {
namespace {

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool IsSourceFile(const std::filesystem::path& path) {
  const auto ext = path.extension();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

TEST(DeterminismAuditTest, NoEnvironmentEntropyInProductionCode) {
  const std::filesystem::path root = FADESCHED_SOURCE_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(root)) << root;

  // Timing-only code; it may read the monotonic clock but is banned from
  // the entropy list below like everything else. The serving layer's
  // uses are latency histograms, queue-age deadlines, open-loop load
  // pacing, the connection scanner's slow-client read deadline (stamped
  // by the scanner, checked by the front-end), the chaos soak's
  // wall-clock report, the overload controller's queue-delay clocking,
  // the supervisor's backoff/uptime/fault-instant bookkeeping, the
  // inline fast-path latency stamp, and the shard front-end's
  // drain-grace/roll deadlines — durations that never feed a schedule
  // (the behavioural check below, the loadgen determinism comparison,
  // and the soak's byte-identical fault trace all pin that).
  const std::vector<std::string> steady_clock_allowlist = {
      "util/deadline.hpp",      "util/stopwatch.hpp",
      "service/batcher.hpp",    "service/batcher.cpp",
      "service/loadgen.cpp",    "service/chaos/soak.cpp",
      "service/overload.hpp",   "service/service.cpp",
      "service/supervisor.hpp", "service/supervisor.cpp",
      "service/shard/shard_server.hpp",
      "service/shard/shard_server.cpp",
      "service/shard/frame_scanner.hpp"};
  const std::vector<std::string> forbidden = {
      "std::random_device", "random_device{", "system_clock",
      "high_resolution_clock", "srand(", "time(nullptr)", "time(NULL)",
  };

  std::vector<std::string> findings;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
    const std::string rel =
        std::filesystem::relative(entry.path(), root).generic_string();
    const std::string text = ReadAll(entry.path());
    for (const std::string& token : forbidden) {
      if (text.find(token) != std::string::npos) {
        findings.push_back(rel + ": uses " + token);
      }
    }
    if (text.find("steady_clock") != std::string::npos) {
      bool allowed = false;
      for (const std::string& ok : steady_clock_allowlist) {
        allowed = allowed || rel == ok;
      }
      if (!allowed) {
        findings.push_back(rel + ": steady_clock outside timing utilities");
      }
    }
  }
  for (const std::string& finding : findings) ADD_FAILURE() << finding;
  // Sanity: the scan actually visited the tree.
  EXPECT_TRUE(std::filesystem::exists(root / "sched" / "registry.cpp"));
}

TEST(DeterminismAuditTest, SameSeedSameScheduleForEveryScheduler) {
  const testing::ScenarioFuzzer fuzzer(404);
  for (std::uint64_t index = 0; index < 6; ++index) {
    const testing::ScenarioCase scenario = fuzzer.Case(index);
    for (const sched::SchedulerContract& contract :
         sched::RegisteredSchedulers()) {
      if (contract.max_links != 0 &&
          scenario.links.Size() > contract.max_links) {
        continue;
      }
      if (contract.fuzz_cap != 0 &&
          scenario.links.Size() > contract.fuzz_cap) {
        continue;
      }
      const sched::ScheduleResult a =
          sched::MakeScheduler(contract.name)
              ->Schedule(scenario.links, scenario.params);
      const sched::ScheduleResult b =
          sched::MakeScheduler(contract.name)
              ->Schedule(scenario.links, scenario.params);
      EXPECT_EQ(a.schedule, b.schedule)
          << contract.name << " case " << index;
      EXPECT_EQ(a.claimed_rate, b.claimed_rate) << contract.name;
    }
  }
}

}  // namespace
}  // namespace fadesched
