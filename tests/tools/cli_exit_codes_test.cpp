// End-to-end exit-code contract of fadesched_cli, exercised by shelling
// out to the real binary (path injected by CMake as FADESCHED_CLI_PATH):
// 0 success, 1 runtime failure, 2 usage error, 3 watchdog timeout or
// interruption. These are what CI scripts and the resume workflow branch
// on, so they are pinned here.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace fadesched {
namespace {

std::string Cli() { return FADESCHED_CLI_PATH; }

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fadesched_cli_exit_" + name;
}

int RunCommand(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1) << command;
  EXPECT_TRUE(WIFEXITED(status)) << command << " died on a signal";
  return WEXITSTATUS(status);
}

TEST(CliExitCodesTest, HelpIsSuccess) {
  EXPECT_EQ(RunCommand(Cli() + " --help"), util::kExitOk);
  EXPECT_EQ(RunCommand(Cli() + " generate --help"), util::kExitOk);
  EXPECT_EQ(RunCommand(Cli() + " sweep --help"), util::kExitOk);
  EXPECT_EQ(RunCommand(Cli() + " list"), util::kExitOk);
}

TEST(CliExitCodesTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunCommand(Cli()), util::kExitUsage);
  EXPECT_EQ(RunCommand(Cli() + " frobnicate"), util::kExitUsage);
  EXPECT_EQ(RunCommand(Cli() + " supervise --workers 2"), util::kExitUsage);
  EXPECT_EQ(RunCommand(Cli() + " loadgen --mux"), util::kExitUsage);
  EXPECT_EQ(RunCommand(Cli() + " generate --no-such-flag 1"),
            util::kExitUsage);
  EXPECT_EQ(RunCommand(Cli() + " solve --trials"), util::kExitUsage);
  // Retired flags. Under a timeout, so one that still parsed fails the
  // test instead of leaving a server listening.
  EXPECT_EQ(RunCommand("timeout 10 " + Cli() + " serve --brownout"),
            util::kExitUsage);
  EXPECT_EQ(RunCommand("timeout 10 " + Cli() + " serve --backend tables"),
            util::kExitUsage);
  EXPECT_EQ(RunCommand("timeout 10 " + Cli() + " queue-sim --backend tables"),
            util::kExitUsage);
}

TEST(CliExitCodesTest, RuntimeFailuresExitOne) {
  EXPECT_EQ(RunCommand(Cli() + " info --in " + TempPath("absent.csv")),
            util::kExitRuntime);
  // A structurally valid flag with a semantically invalid value.
  const std::string links = TempPath("links_bad.csv");
  ASSERT_EQ(RunCommand(Cli() + " generate --links 20 --out " + links),
            util::kExitOk);
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + links +
                       " --algorithm no_such_scheduler"),
            util::kExitRuntime);
  // "nan" parses as a double; the overload options must still reject it.
  EXPECT_EQ(RunCommand("timeout 10 " + Cli() +
                       " serve --queue-delay-target-ms nan"),
            util::kExitRuntime);
  std::remove(links.c_str());
}

TEST(CliExitCodesTest, WatchdogTimeoutExitsThree) {
  const std::string links = TempPath("links_timeout.csv");
  ASSERT_EQ(RunCommand(Cli() + " generate --links 60 --out " + links),
            util::kExitOk);
  // A deadline that has already expired when the simulation starts.
  EXPECT_EQ(RunCommand(Cli() + " simulate --in " + links +
                       " --algorithm rle --trials 200000"
                       " --deadline 0.000000001"),
            util::kExitInterrupted);
  // Sanity: without the deadline the same simulation succeeds.
  EXPECT_EQ(RunCommand(Cli() + " simulate --in " + links +
                       " --algorithm rle --trials 2000"),
            util::kExitOk);
  std::remove(links.c_str());
}

TEST(CliExitCodesTest, SweepResumeRoundTripViaCli) {
  const std::string ck = TempPath("sweep.ck");
  const std::string full = TempPath("sweep_full.csv");
  const std::string resumed = TempPath("sweep_resumed.csv");
  std::remove(ck.c_str());
  const std::string base = Cli() +
      " sweep --x links --xs 30,45 --algorithms ldp,rle"
      " --seeds 2 --trials 60 --deterministic";

  ASSERT_EQ(RunCommand(base + " --out " + full), util::kExitOk);

  // Crash drill: SIGKILL right after the first point checkpoints. The
  // shell in between reports the signal as exit status 128 + SIGKILL.
  const int status = std::system(
      (base + " --checkpoint " + ck + " --crash-after-point 0 --out " +
       resumed + " >/dev/null 2>&1").c_str());
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 128 + SIGKILL);

  ASSERT_EQ(RunCommand(base + " --checkpoint " + ck + " --resume --out " +
                       resumed),
            util::kExitOk);
  EXPECT_EQ(RunCommand("cmp -s " + full + " " + resumed), 0)
      << "resumed CSV differs from the uninterrupted run";
  std::remove(full.c_str());
  std::remove(resumed.c_str());
}

TEST(CliExitCodesTest, QueueSimSweepTraceAndErrors) {
  const std::string links = TempPath("links_qsim.csv");
  const std::string out = TempPath("qsim.csv");
  ASSERT_EQ(RunCommand(Cli() + " generate --links 15 --out " + links),
            util::kExitOk);

  EXPECT_EQ(RunCommand(Cli() + " queue-sim --in " + links +
                       " --slots 60 --warmup 10 --rates 0.05"
                       " --algorithms ldp --out " + out),
            util::kExitOk);
  EXPECT_EQ(RunCommand("test -s " + out), 0) << "no CSV written";

  EXPECT_EQ(RunCommand(Cli() + " queue-sim --in " + links +
                       " --slots 40 --rates 0.05 --algorithms ldp --trace"),
            util::kExitOk);
  EXPECT_EQ(RunCommand(Cli() + " queue-sim --in " + links +
                       " --slots 60 --frontier --frontier-iters 2"
                       " --algorithms ldp"),
            util::kExitOk);

  // --trace needs exactly one algorithm and rate (a runtime failure); an
  // unknown flag is a usage error.
  EXPECT_EQ(RunCommand(Cli() + " queue-sim --in " + links +
                       " --slots 40 --rates 0.05 --algorithms ldp,rle"
                       " --trace"),
            util::kExitRuntime);
  EXPECT_EQ(RunCommand(Cli() + " queue-sim --no-such-flag"),
            util::kExitUsage);
  std::remove(links.c_str());
  std::remove(out.c_str());
}

TEST(CliExitCodesTest, DynamicFuzzSmokeIsClean) {
  EXPECT_EQ(RunCommand(Cli() + " fuzz --dynamic --iters 3 --max-links 6"
                       " --max-slots 60 --log-every 0"),
            util::kExitOk);
}

}  // namespace
}  // namespace fadesched
