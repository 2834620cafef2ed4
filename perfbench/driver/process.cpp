#include "process.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {
namespace {

// Live child process groups, read by the watchdog signal handler.
constexpr int kMaxGroups = 8;
volatile sig_atomic_t g_groups[kMaxGroups] = {};

void TrackGroup(pid_t pgid, bool live) {
  for (int i = 0; i < kMaxGroups; ++i) {
    if (live && g_groups[i] == 0) {
      g_groups[i] = pgid;
      return;
    }
    if (!live && g_groups[i] == pgid) {
      g_groups[i] = 0;
      return;
    }
  }
  if (live) throw std::runtime_error("too many live child processes");
}

void OnFatalSignal(int) {
  for (int i = 0; i < kMaxGroups; ++i) {
    if (g_groups[i] != 0) ::kill(-g_groups[i], SIGKILL);
  }
  constexpr char kMsg[] = "perfbench_driver: stopped by a signal, aborting\n";
  (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  ::_exit(3);
}

/// fork + exec with stdout on a pipe. Returns the read end via *out_fd.
pid_t Spawn(const std::vector<std::string>& argv, int* out_fd) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::vector<char*> raw;
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also done by the child; whichever runs first wins
  ::close(pipe_fds[1]);
  TrackGroup(pid, true);
  *out_fd = pipe_fds[0];
  return pid;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

TreeUsage ReadTreeUsage(pid_t root) {
  TreeUsage usage;
  std::vector<pid_t> pending{root};
  while (!pending.empty()) {
    const pid_t pid = pending.back();
    pending.pop_back();
    const std::string base = "/proc/" + std::to_string(pid);
    // The process's CPU clock: user+system time of all its threads, live
    // and exited, at nanosecond resolution (/proc's utime and stime count
    // whole clock ticks).
    clockid_t clock{};
    timespec cpu{};
    if (::clock_getcpuclockid(pid, &clock) != 0 ||
        ::clock_gettime(clock, &cpu) != 0) {
      continue;  // exited meanwhile
    }
    usage.cpu_seconds += static_cast<double>(cpu.tv_sec) +
                         1e-9 * static_cast<double>(cpu.tv_nsec);
    std::istringstream status(ReadFile(base + "/status"));
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        usage.peak_rss_mb += std::stod(line.substr(6)) / 1024.0;
      }
    }
    ++usage.processes;
    if (DIR* tasks = ::opendir((base + "/task").c_str())) {
      while (const dirent* entry = ::readdir(tasks)) {
        if (entry->d_name[0] == '.') continue;
        std::istringstream children(
            ReadFile(base + "/task/" + entry->d_name + "/children"));
        for (pid_t child; children >> child;) pending.push_back(child);
      }
      ::closedir(tasks);
    }
  }
  return usage;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

ServerProcess::ServerProcess(const std::vector<std::string>& argv) {
  pid_ = Spawn(argv, &out_fd_);
  std::string out;
  const Clock::time_point start = Clock::now();
  while (out.find("listening on") == std::string::npos) {
    if (SecondsSince(start) > 60.0) {
      Stop();
      throw std::runtime_error("server not ready within 60 s");
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Stop();
      throw std::runtime_error("server exited before it was ready");
    }
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

int ServerProcess::Stop() {
  if (pid_ < 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point start = Clock::now();
  bool killed = false;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    // Keep draining stdout so a chatty shutdown cannot block on the pipe.
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10) > 0) {
      char chunk[4096];
      (void)!::read(out_fd_, chunk, sizeof(chunk));
    }
    if (!killed && SecondsSince(start) > 20.0) {
      ::kill(-pid_, SIGKILL);
      killed = true;
    }
  }
  ::kill(-pid_, SIGKILL);  // any straggler left in the group
  TrackGroup(pid_, false);
  ::close(out_fd_);
  pid_ = -1;
  out_fd_ = -1;
  return status;
}

ChildRun RunToExit(const std::vector<std::string>& argv) {
  ChildRun run;
  const Clock::time_point start = Clock::now();
  int out_fd = -1;
  const pid_t pid = Spawn(argv, &out_fd);
  std::array<char, 65536> chunk;
  for (ssize_t n; (n = ::read(out_fd, chunk.data(), chunk.size())) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    run.out.append(chunk.data(), static_cast<std::size_t>(n));
  }
  ::close(out_fd);
  rusage usage{};
  while (::wait4(pid, &run.status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_seconds = SecondsSince(start);
  TrackGroup(pid, false);
  run.cpu_seconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  run.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

void ArmWatchdog(unsigned seconds) {
  for (const int sig : {SIGALRM, SIGTERM, SIGINT}) std::signal(sig, OnFatalSignal);
  ::alarm(seconds);
}

void KillAllSpawned() {
  for (int i = 0; i < kMaxGroups; ++i) {
    if (g_groups[i] != 0) ::kill(-g_groups[i], SIGKILL);
  }
}

}  // namespace perfbench
