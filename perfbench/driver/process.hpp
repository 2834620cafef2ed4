// Child processes of perfbench_driver and their /proc accounting.
//
// Every child runs in its own process group with PR_SET_PDEATHSIG, so a
// server's forked shard workers are reachable through the group and
// nothing outlives perfbench_driver.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// CPU and peak memory of a process and all its descendants: each
/// process's CPU clock (user+system, clock_getcpuclockid) and VmHWM from
/// /proc/<pid>/status.
struct TreeUsage {
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t processes = 0;
};
TreeUsage ReadTreeUsage(pid_t root);

/// CPU seconds (user+system) this process has used so far.
double SelfCpuSeconds();

/// A long-running `fadesched_cli serve`. The constructor returns once the
/// server printed its "listening on" line; the destructor stops it.
class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& argv);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t Pid() const { return pid_; }

  /// SIGTERM (graceful drain), SIGKILL to the group after a grace period.
  /// Returns the exit status as waitpid reports it.
  int Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// A short-lived child run to completion.
struct ChildRun {
  int status = -1;           ///< waitpid status
  double wall_seconds = 0.0; ///< fork to reap
  double cpu_seconds = 0.0;  ///< the child's user+system time
  double max_rss_mb = 0.0;
  std::string out;           ///< everything it wrote to stdout
};
ChildRun RunToExit(const std::vector<std::string>& argv);

/// Kills every live child group and exits with code 3 after `seconds`, or
/// on SIGTERM/SIGINT.
void ArmWatchdog(unsigned seconds);
/// SIGKILLs every live child group (error paths).
void KillAllSpawned();

}  // namespace perfbench
