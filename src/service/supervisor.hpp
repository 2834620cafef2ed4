// Crash-only worker supervision for the sharded serving tier.
//
// The supervisor forks N worker processes and runs a single-threaded
// control loop that only ever does four things:
//
//   * reap: waitpid(WNOHANG) notices dead workers. A non-zero or
//     signalled exit is a crash; the slot is respawned after a bounded
//     exponential backoff that resets once a worker survives
//     `stable_seconds`. A clean exit that nobody asked for is treated the
//     same way (a worker has no business exiting on its own).
//   * circuit-break: more than `max_restarts_in_window` restarts inside
//     `restart_window_seconds` means the workers are flapping (crash on
//     boot, poisoned state); instead of burning CPU forever the breaker
//     opens and the embedder tears everything down and exits non-zero.
//   * expected slot shutdown (BeginSlotShutdown): SIGTERM one worker,
//     escalate to SIGKILL after `drain_grace_seconds`, respawn it without
//     backoff. The embedder drives rolls through it: shard::ShardServer
//     polls ConsumeHupRequest() and rolls one arc at a time, draining
//     each shard's in-flight tickets before its SIGTERM.
//   * shutdown (End()): SIGTERM to every worker, wait up to
//     `drain_grace_seconds`, escalate to SIGKILL, reap, return.
//
// The embedder owns the loop: shard::ShardServer calls Begin() once,
// Step() on every epoll tick, and End() when it stops serving.
//
// Crash-only rationale: workers are the only state holders, and their
// state is a cache — so the recovery path IS the startup path. The
// supervisor never pickles or hands over state; it just re-forks. That
// makes the injected-SIGKILL drill (below) exercise the exact same code
// as a real segfault, OOM-kill, or deploy.
//
// Process-fault injection is kills only: a ProcessChaosOptions seed
// expands into a deterministic, time-sorted plan of SIGKILLs (same
// SplitMix64 idiom as the socket-level ChaosPlan, so one seed replays one
// recovery history). The plan is a plain vector — shrinking a failure is
// dropping events and re-running.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fadesched::service {

/// One scheduled SIGKILL. `at_seconds` is relative to Begin().
struct ProcessFaultEvent {
  double at_seconds = 0.0;
  /// Preferred victim slot; if it happens to be down when the event
  /// fires, the first live worker is hit instead (the fault must land
  /// for `restarts == injected kills` to be assertable).
  std::size_t slot = 0;
};

/// Seeded kill generator: `kills` SIGKILLs spread uniformly over
/// [0, window_seconds).
struct ProcessChaosOptions {
  std::uint64_t seed = 1;
  std::size_t kills = 0;
  double window_seconds = 10.0;

  void Validate() const;
};

/// Expands the options into a time-sorted plan (deterministic per seed).
std::vector<ProcessFaultEvent> BuildProcessFaultPlan(
    const ProcessChaosOptions& chaos, std::size_t num_workers);

/// Lifecycle callbacks for embedders that interleave supervision with
/// their own event loop (the shard router). All fire on the supervising
/// thread/loop, never in the child.
struct SupervisorHooks {
  /// Immediately before fork() for `slot` — the router creates a fresh
  /// socketpair here so the child inherits its end.
  std::function<void(std::size_t slot)> prepare_spawn;
  /// After a successful fork, parent side.
  std::function<void(std::size_t slot, pid_t pid)> worker_spawned;
  /// A worker left its slot (reaped). `reason` is the slot's respawn
  /// reason ("crash", "clean-exit", "rolled", ...); the router fails that
  /// shard's in-flight tickets and closes its pipe end here. Fires before
  /// the respawn is scheduled.
  std::function<void(std::size_t slot, const std::string& reason)> worker_down;
  /// Extra JSON fields for this slot's entry in the status report, e.g.
  /// `"ring_arc": 0.25, "live": true`. Must be valid JSON object-body
  /// fragments (no braces); empty string for none.
  std::function<std::string(std::size_t slot)> slot_annotation;
};

struct SupervisorOptions {
  std::size_t num_workers = 2;

  /// Crash-restart backoff: initial × multiplier^(consecutive crashes),
  /// capped at max; a worker alive for `stable_seconds` resets its
  /// slot's streak.
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 2.0;
  double stable_seconds = 5.0;

  /// Flap breaker: opening threshold, counted across all slots.
  std::size_t max_restarts_in_window = 8;
  double restart_window_seconds = 10.0;

  /// Slot-shutdown and drain escalation: SIGTERM, then SIGKILL after
  /// this grace period.
  double drain_grace_seconds = 10.0;

  ProcessChaosOptions chaos;

  SupervisorHooks hooks;

  void Validate() const;
};

/// Per-slot line of the status report: who is (or last was) in the
/// slot, how many times it has been forked, and why the most recent
/// spawn happened — the CI shard drill asserts the killed slot (and only
/// it) reads "crash" while a SIGHUP roll marks every slot "rolled".
struct SlotStatus {
  std::size_t slot = 0;
  pid_t pid = -1;
  std::size_t spawns = 0;
  std::string last_respawn_reason;  ///< "initial", "crash", "rolled", ...
  std::string annotation;           ///< hooks.slot_annotation fragment
};

/// What happened over one supervision span, dumped as JSON by `serve
/// --shards N --status-out` and asserted by the CI shard drill.
struct SupervisorReport {
  std::size_t spawned = 0;          ///< total forks, initial set included
  std::size_t restarts = 0;         ///< crash-driven respawns
  std::size_t rolled = 0;           ///< "rolled" slot-shutdown respawns
  std::size_t crashes = 0;          ///< non-clean worker exits observed
  std::size_t injected_kills = 0;
  bool breaker_open = false;
  double wall_seconds = 0.0;
  std::vector<SlotStatus> slots;

  [[nodiscard]] std::string ToJson() const;
};

class Supervisor {
 public:
  /// Runs inside the forked child (the shard router serves one pipe end
  /// here). The return value becomes the worker's exit code. `slot` is
  /// the stable worker index, `spawn_ordinal` the global fork count
  /// before this one (stored in ServiceMetrics::worker_restarts so the
  /// STATS verb can report it).
  /// Must not return through supervisor state — the child _exit()s with
  /// the returned code immediately after.
  using WorkerMain =
      std::function<int(std::size_t slot, std::size_t spawn_ordinal)>;

  Supervisor(WorkerMain worker_main, SupervisorOptions options);

  /// Stepwise API for an embedder with its own event loop (the shard
  /// router interleaves supervision ticks with epoll readiness, because
  /// ring-aware draining depends on that same loop pumping responses).
  /// Not reentrant.
  ///
  /// Begin() installs the SIGHUP handler and forks the initial workers.
  /// Step() is one non-blocking supervision tick: reap, fire due faults,
  /// respawn due slots, escalate overdue slot shutdowns. End() drains
  /// everything, restores handlers, and returns the report. A SIGHUP
  /// between Step()s is NOT auto-handled — the embedder polls
  /// ConsumeHupRequest() and runs its own drain-aware roll via
  /// BeginSlotShutdown().
  void Begin();
  void Step();
  SupervisorReport End();

  /// True once per delivered SIGHUP (clears the flag).
  [[nodiscard]] bool ConsumeHupRequest();

  /// Breaker state, for the embedder's loop condition.
  [[nodiscard]] bool BreakerOpen() const { return report_.breaker_open; }

  /// Pid of the worker currently in `slot` (-1 while between spawns).
  [[nodiscard]] pid_t SlotPid(std::size_t slot) const;

  /// Starts a graceful, expected shutdown of one slot: SIGTERM now,
  /// SIGKILL escalation after the drain grace (enforced by Step()). The
  /// exit is classified as `reason` (not a crash — no backoff, no
  /// breaker count; "rolled" also bumps report.rolled), and the slot
  /// respawns immediately after the reap. The embedder observes the
  /// sequence via hooks: worker_down(slot, reason) → prepare_spawn →
  /// worker_spawned.
  void BeginSlotShutdown(std::size_t slot, const std::string& reason);

 private:
  struct Slot {
    pid_t pid = -1;
    std::size_t consecutive_crashes = 0;
    std::chrono::steady_clock::time_point spawned_at{};
    std::chrono::steady_clock::time_point respawn_at{};
    bool respawn_pending = false;
    /// BeginSlotShutdown state: the next exit is expected (classified as
    /// `pending_reason`, respawned without backoff); past
    /// `shutdown_deadline` Step() escalates to SIGKILL.
    bool shutting_down = false;
    std::chrono::steady_clock::time_point shutdown_deadline{};
    std::string pending_reason;
    /// Why the *next* spawn happens / why the last one happened.
    std::string next_spawn_reason = "initial";
    std::string last_respawn_reason;
    std::size_t spawns = 0;
  };

  void SpawnWorker(std::size_t slot_index);
  void ReapWorkers();
  void FillSlotStatus();
  void FireDueFaults();
  void DrainAll();
  [[nodiscard]] double BackoffSeconds(std::size_t consecutive_crashes) const;
  void RecordRestartForBreaker();
  [[nodiscard]] std::size_t LiveWorkers() const;

  WorkerMain worker_main_;
  SupervisorOptions options_;
  SupervisorReport report_;
  std::vector<Slot> slots_;
  std::vector<ProcessFaultEvent> fault_plan_;
  std::size_t next_fault_ = 0;
  std::vector<std::chrono::steady_clock::time_point> restart_times_;
  std::chrono::steady_clock::time_point start_{};
  bool began_ = false;
};

}  // namespace fadesched::service
