#include "service/supervisor.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service {

namespace {

constexpr int kTickMs = 20;

// SIGHUP = rolling restart. async-signal-safe flag, polled by the
// embedder through ConsumeHupRequest() (same pattern as
// util::signal_guard's SIGTERM flag, which the CLI installs and the
// workers inherit across fork).
volatile std::sig_atomic_t g_hup_requested = 0;

void HupHandler(int) { g_hup_requested = 1; }

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Uniform double in [0, 1) from a SplitMix64 draw.
double UnitDraw(rng::SplitMix64& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

}  // namespace

void ProcessChaosOptions::Validate() const {
  if (window_seconds <= 0.0) {
    throw util::FatalError("process chaos: window_seconds must be positive");
  }
}

std::vector<ProcessFaultEvent> BuildProcessFaultPlan(
    const ProcessChaosOptions& chaos, std::size_t num_workers) {
  chaos.Validate();
  FS_CHECK_MSG(num_workers >= 1, "fault plan needs >= 1 worker");
  std::vector<ProcessFaultEvent> plan;
  plan.reserve(chaos.kills);
  // seed·φ+1 is part of the --chaos-seed contract: changing it moves
  // every seed's kills (ProcessFaultPlanTest.DrillKillPlacementsArePinned).
  rng::SplitMix64 kill_rng(chaos.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t k = 0; k < chaos.kills; ++k) {
    ProcessFaultEvent event;
    event.at_seconds = UnitDraw(kill_rng) * chaos.window_seconds;
    event.slot = static_cast<std::size_t>(kill_rng.Next() % num_workers);
    plan.push_back(event);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const ProcessFaultEvent& a, const ProcessFaultEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  return plan;
}

void SupervisorOptions::Validate() const {
  if (num_workers == 0) {
    throw util::FatalError("supervisor: num_workers must be >= 1");
  }
  if (backoff_initial_seconds < 0.0 || backoff_max_seconds < 0.0 ||
      backoff_multiplier < 1.0) {
    throw util::FatalError(
        "supervisor: backoff needs initial/max >= 0 and multiplier >= 1");
  }
  if (max_restarts_in_window == 0 || restart_window_seconds <= 0.0) {
    throw util::FatalError(
        "supervisor: breaker needs max_restarts_in_window >= 1 and a "
        "positive window");
  }
  if (drain_grace_seconds < 0.0) {
    throw util::FatalError("supervisor: drain_grace_seconds must be >= 0");
  }
  chaos.Validate();
}

std::string SupervisorReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"spawned\": " << spawned << ",\n";
  out << "  \"restarts\": " << restarts << ",\n";
  out << "  \"rolled\": " << rolled << ",\n";
  out << "  \"crashes\": " << crashes << ",\n";
  out << "  \"injected_kills\": " << injected_kills << ",\n";
  out << "  \"breaker_open\": " << (breaker_open ? "true" : "false") << ",\n";
  char wall_buf[32];
  std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall_seconds);
  out << "  \"wall_seconds\": " << wall_buf << ",\n";
  out << "  \"slots\": [";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const SlotStatus& s = slots[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"slot\": " << s.slot << ", \"pid\": " << s.pid
        << ", \"spawns\": " << s.spawns << ", \"last_respawn_reason\": \""
        << s.last_respawn_reason << "\"";
    if (!s.annotation.empty()) out << ", " << s.annotation;
    out << "}";
  }
  out << (slots.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

Supervisor::Supervisor(WorkerMain worker_main, SupervisorOptions options)
    : worker_main_(std::move(worker_main)), options_(options) {
  FS_CHECK_MSG(worker_main_ != nullptr, "Supervisor needs a worker_main");
  options_.Validate();
}

double Supervisor::BackoffSeconds(std::size_t consecutive_crashes) const {
  if (consecutive_crashes == 0) return 0.0;
  double backoff = options_.backoff_initial_seconds;
  for (std::size_t i = 1;
       i < consecutive_crashes && backoff < options_.backoff_max_seconds;
       ++i) {
    backoff *= options_.backoff_multiplier;
  }
  return std::min(backoff, options_.backoff_max_seconds);
}

std::size_t Supervisor::LiveWorkers() const {
  std::size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.pid > 0) ++live;
  }
  return live;
}

void Supervisor::SpawnWorker(std::size_t slot_index) {
  Slot& slot = slots_[slot_index];
  const std::size_t spawn_ordinal = report_.spawned;

  if (options_.hooks.prepare_spawn) options_.hooks.prepare_spawn(slot_index);

  const pid_t pid = ::fork();
  if (pid < 0) {
    // Treat a failed fork like a crashed spawn: back off and retry, so a
    // transient EAGAIN (pid pressure) cannot take the tier down.
    slot.pid = -1;
    slot.consecutive_crashes += 1;
    slot.respawn_pending = true;
    slot.next_spawn_reason = "fork-failed";
    slot.respawn_at = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              BackoffSeconds(slot.consecutive_crashes)));
    return;
  }
  if (pid == 0) {
    // Child. Crash-only hygiene: drop inherited shutdown state (the
    // parent's guard flag is ours too after fork), then run the worker
    // and _exit without unwinding through supervisor state — a worker
    // that "returns" must not run the parent's destructors or atexit
    // handlers.
    util::ClearShutdownRequest();
    g_hup_requested = 0;
    int rc = 1;
    try {
      rc = worker_main_(slot_index, spawn_ordinal);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[worker %zu] fatal: %s\n", slot_index, e.what());
      rc = 1;
    } catch (...) {
      rc = 1;
    }
    ::_exit(rc);
  }
  // Parent.
  slot.pid = pid;
  slot.spawned_at = std::chrono::steady_clock::now();
  slot.respawn_pending = false;
  slot.shutting_down = false;
  slot.last_respawn_reason = slot.next_spawn_reason;
  slot.spawns += 1;
  report_.spawned += 1;
  if (options_.hooks.worker_spawned) {
    options_.hooks.worker_spawned(slot_index, pid);
  }
}

void Supervisor::RecordRestartForBreaker() {
  const auto now = std::chrono::steady_clock::now();
  restart_times_.push_back(now);
  const auto cutoff =
      now - std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options_.restart_window_seconds));
  restart_times_.erase(
      std::remove_if(restart_times_.begin(), restart_times_.end(),
                     [cutoff](auto t) { return t < cutoff; }),
      restart_times_.end());
  if (restart_times_.size() > options_.max_restarts_in_window) {
    report_.breaker_open = true;
  }
}

void Supervisor::ReapWorkers() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.pid != pid) continue;
      slot.pid = -1;
      if (slot.shutting_down) {
        // Expected exit (BeginSlotShutdown): not a crash, no backoff, no
        // breaker pressure — the supervisor asked for this. Respawn at
        // once so the slot's arc goes back live as fast as the fork.
        slot.shutting_down = false;
        slot.consecutive_crashes = 0;
        slot.respawn_pending = true;
        slot.respawn_at = now;
        slot.next_spawn_reason = slot.pending_reason;
        if (slot.pending_reason == "rolled") report_.rolled += 1;
        if (options_.hooks.worker_down) {
          options_.hooks.worker_down(i, slot.pending_reason);
        }
        break;
      }
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      // A clean self-exit nobody asked for is still a failure of the
      // supervision contract (workers serve until told), but the restart
      // itself is what matters; count it as a crash too.
      report_.crashes += (clean ? 0 : 1);
      slot.next_spawn_reason = clean ? "clean-exit" : "crash";
      const bool was_stable =
          Seconds(now - slot.spawned_at) >= options_.stable_seconds;
      slot.consecutive_crashes =
          was_stable ? 1 : slot.consecutive_crashes + 1;
      slot.respawn_pending = true;
      slot.respawn_at =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        BackoffSeconds(slot.consecutive_crashes)));
      report_.restarts += 1;
      RecordRestartForBreaker();
      if (options_.hooks.worker_down) {
        options_.hooks.worker_down(i, slot.next_spawn_reason);
      }
      break;
    }
  }
}

void Supervisor::FireDueFaults() {
  // At most one kill per tick: the victim must be reaped before the next
  // event fires, or a same-tick second kill would land on the already-
  // dying pid and silently merge two planned faults into one observed
  // crash — breaking the drill's `restarts == kills` ledger.
  const double elapsed = Seconds(std::chrono::steady_clock::now() - start_);
  if (next_fault_ >= fault_plan_.size() ||
      fault_plan_[next_fault_].at_seconds > elapsed) {
    return;
  }
  // Land on the planned slot if alive, else the first live worker; if
  // nobody is alive yet (everyone mid-backoff), hold the event.
  std::size_t victim = fault_plan_[next_fault_].slot;
  if (slots_[victim].pid <= 0) {
    victim = 0;
    while (victim < slots_.size() && slots_[victim].pid <= 0) ++victim;
    if (victim == slots_.size()) return;  // nobody alive: retry next tick
  }
  ::kill(slots_[victim].pid, SIGKILL);
  report_.injected_kills += 1;
  ++next_fault_;
}

void Supervisor::DrainAll() {
  for (Slot& slot : slots_) {
    if (slot.pid > 0) ::kill(slot.pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.drain_grace_seconds));
  for (;;) {
    bool any_alive = false;
    for (Slot& slot : slots_) {
      if (slot.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
      if (r == slot.pid || (r < 0 && errno == ECHILD)) {
        slot.pid = -1;
      } else {
        any_alive = true;
      }
    }
    if (!any_alive) return;
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMs));
  }
  for (Slot& slot : slots_) {
    if (slot.pid <= 0) continue;
    ::kill(slot.pid, SIGKILL);
    ::waitpid(slot.pid, nullptr, 0);
    slot.pid = -1;
  }
}

namespace {
// Saved SIGHUP disposition across Begin()/End(). File-static rather than
// a member so the header stays free of <csignal>; supervisors are "not
// reentrant" by contract and never nested.
struct sigaction g_old_hup;
}  // namespace

void Supervisor::Begin() {
  FS_CHECK_MSG(!began_, "Supervisor::Begin() called twice");
  began_ = true;
  report_ = SupervisorReport{};
  slots_.assign(options_.num_workers, Slot{});
  fault_plan_ = BuildProcessFaultPlan(options_.chaos, options_.num_workers);
  next_fault_ = 0;
  restart_times_.clear();
  start_ = std::chrono::steady_clock::now();

  // SIGHUP → roll request, for this supervision span only.
  struct sigaction hup_action {};
  hup_action.sa_handler = HupHandler;
  sigemptyset(&hup_action.sa_mask);
  ::sigaction(SIGHUP, &hup_action, &g_old_hup);
  g_hup_requested = 0;

  for (std::size_t i = 0; i < slots_.size(); ++i) SpawnWorker(i);
}

void Supervisor::Step() {
  ReapWorkers();
  FireDueFaults();
  const auto now = std::chrono::steady_clock::now();
  // Escalate slot shutdowns that outlived their grace: SIGKILL cannot be
  // ignored, and the subsequent reap still classifies the exit as the
  // expected `pending_reason`.
  for (Slot& slot : slots_) {
    if (slot.shutting_down && slot.pid > 0 && now >= slot.shutdown_deadline) {
      ::kill(slot.pid, SIGKILL);
      slot.shutdown_deadline =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(1.0));
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.pid > 0 || !slot.respawn_pending || slot.respawn_at > now) {
      continue;
    }
    SpawnWorker(i);
  }
}

void Supervisor::FillSlotStatus() {
  report_.slots.clear();
  report_.slots.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    SlotStatus status;
    status.slot = i;
    status.pid = slots_[i].pid;
    status.spawns = slots_[i].spawns;
    status.last_respawn_reason = slots_[i].last_respawn_reason;
    if (options_.hooks.slot_annotation) {
      status.annotation = options_.hooks.slot_annotation(i);
    }
    report_.slots.push_back(std::move(status));
  }
}

SupervisorReport Supervisor::End() {
  FS_CHECK_MSG(began_, "Supervisor::End() without Begin()");
  // Snapshot slot status before the drain wipes the pids — the report
  // should show who was serving, not a row of -1s.
  FillSlotStatus();
  DrainAll();
  ::sigaction(SIGHUP, &g_old_hup, nullptr);
  report_.wall_seconds = Seconds(std::chrono::steady_clock::now() - start_);
  began_ = false;
  return report_;
}

bool Supervisor::ConsumeHupRequest() {
  if (g_hup_requested == 0) return false;
  g_hup_requested = 0;
  return true;
}

pid_t Supervisor::SlotPid(std::size_t slot) const {
  FS_CHECK_MSG(slot < slots_.size(), "SlotPid: slot out of range");
  return slots_[slot].pid;
}

void Supervisor::BeginSlotShutdown(std::size_t slot_index,
                                   const std::string& reason) {
  FS_CHECK_MSG(slot_index < slots_.size(),
               "BeginSlotShutdown: slot out of range");
  Slot& slot = slots_[slot_index];
  if (slot.pid <= 0 || slot.shutting_down) return;
  slot.shutting_down = true;
  slot.pending_reason = reason;
  slot.shutdown_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.drain_grace_seconds));
  ::kill(slot.pid, SIGTERM);
}

}  // namespace fadesched::service
