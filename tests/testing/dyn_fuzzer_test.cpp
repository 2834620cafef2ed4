// The dynamic fuzz family: case purity, .dynscenario round-trips, the
// replay oracle, and the shrinker's contract.
#include "testing/dyn_fuzzer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/atomic_io.hpp"
#include "util/check.hpp"

namespace fadesched::testing {
namespace {

TEST(DynamicFuzzerTest, CasesArePureInSeedAndIndex) {
  const DynamicFuzzer a(42);
  const DynamicFuzzer b(42);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(FormatDynScenario(a.Case(i)), FormatDynScenario(b.Case(i)));
  }
  // Different seeds diverge somewhere in the first few cases.
  const DynamicFuzzer c(43);
  bool diverged = false;
  for (std::uint64_t i = 0; i < 5 && !diverged; ++i) {
    diverged = FormatDynScenario(a.Case(i)) != FormatDynScenario(c.Case(i));
  }
  EXPECT_TRUE(diverged);
}

TEST(DynamicFuzzerTest, CasesStayWithinConfiguredBounds) {
  DynFuzzerOptions options;
  options.min_slots = 50;
  options.max_slots = 90;
  options.schedulers = {"ldp", "rle"};
  const DynamicFuzzer fuzzer(7, options);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const DynamicCase dyn = fuzzer.Case(i);
    EXPECT_GE(dyn.dynamics.num_slots, 50u);
    EXPECT_LE(dyn.dynamics.num_slots, 90u);
    EXPECT_TRUE(dyn.scheduler == "ldp" || dyn.scheduler == "rle")
        << dyn.scheduler;
    EXPECT_NO_THROW(dyn.dynamics.Validate());
  }
}

TEST(DynScenarioFormatTest, RoundTripIsByteExact) {
  const DynamicFuzzer fuzzer(11);
  for (std::uint64_t i = 0; i < 25; ++i) {
    const DynamicCase original = fuzzer.Case(i);
    const std::string text = FormatDynScenario(original);
    const DynamicCase parsed = ParseDynScenario(text);
    // Byte-exact second format: every field survived, including the
    // full-width 64-bit seed and %.17g doubles.
    EXPECT_EQ(FormatDynScenario(parsed), text) << "case " << i;
  }
}

TEST(DynScenarioFormatTest, FileRoundTripMatches) {
  const DynamicCase original = DynamicFuzzer(13).Case(3);
  const std::string path =
      ::testing::TempDir() + "fadesched_dynfuzz_roundtrip.dynscenario";
  SaveDynScenarioFile(original, path);
  const DynamicCase loaded = LoadDynScenarioFile(path);
  EXPECT_EQ(FormatDynScenario(loaded), FormatDynScenario(original));
  util::RemoveFile(path);
}

TEST(DynScenarioFormatTest, MalformedInputNamesTheOffendingLine) {
  EXPECT_THROW(ParseDynScenario("not a dynscenario"), util::CheckFailure);
  try {
    ParseDynScenario("# fadesched dynscenario v1\nnum_slots = frog\n");
    FAIL() << "expected CheckFailure";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // A header with no embedded scenario is incomplete.
  EXPECT_THROW(
      ParseDynScenario("# fadesched dynscenario v1\nscheduler = ldp\n"),
      util::CheckFailure);
}

// The oracle holds on generated cases: replays are deterministic. This is
// the in-suite smoke of the property `fuzz --dynamic` checks at scale.
TEST(DynOracleTest, GeneratedCasesPassTheReplayOracle) {
  const DynamicFuzzer fuzzer(2024);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const DynOracleOutcome outcome = CheckDynamicCase(fuzzer.Case(i));
    EXPECT_TRUE(outcome.ok) << "case " << i << ": " << outcome.check << " — "
                            << outcome.detail;
  }
}

TEST(DynOracleTest, BrokenCaseSurfacesAsCrashNotThrow) {
  DynamicCase dyn = DynamicFuzzer(5).Case(0);
  dyn.scheduler = "no_such_scheduler";
  const DynOracleOutcome outcome = CheckDynamicCase(dyn);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.check, "crash");
  EXPECT_FALSE(outcome.detail.empty());
}

TEST(DynShrinkTest, ShrinkingANonFailingCaseIsRejected) {
  const DynamicCase healthy = DynamicFuzzer(6).Case(1);
  EXPECT_THROW(ShrinkDynamicCase(healthy), util::CheckFailure);
}

// Shrinking a crashing case preserves the failure identity and never
// grows the reproducer.
TEST(DynShrinkTest, ShrunkReproducerStillFailsTheSameCheck) {
  DynamicCase failing = DynamicFuzzer(8).Case(2);
  failing.scheduler = "no_such_scheduler";  // deterministic crash
  const DynOracleOutcome before = CheckDynamicCase(failing);
  ASSERT_FALSE(before.ok);

  DynShrinkOptions options;
  options.max_evaluations = 80;
  const DynShrinkResult result = ShrinkDynamicCase(failing, options);
  EXPECT_LE(result.evaluations, options.max_evaluations);
  EXPECT_LE(result.shrunk.scenario.links.Size(),
            failing.scenario.links.Size());
  EXPECT_LE(result.shrunk.dynamics.num_slots, failing.dynamics.num_slots);

  const DynOracleOutcome after = CheckDynamicCase(result.shrunk);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.check, before.check);
}

TEST(DynFuzzDriverTest, CleanRunReportsOk) {
  DynFuzzDriverOptions options;
  options.seed = 77;
  options.iterations = 6;
  options.fuzzer.topology.max_links = 8;
  options.fuzzer.max_slots = 60;
  const DynFuzzReport report = RunDynamicFuzz(options);
  EXPECT_TRUE(report.Ok());
  EXPECT_EQ(report.iterations_run, 6u);
  EXPECT_EQ(report.cases_with_failures, 0u);
}

}  // namespace
}  // namespace fadesched::testing
