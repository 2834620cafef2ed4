// The slotted dynamics simulator — the time-domain workload on top of the
// one-shot scheduling problem.
//
// Every slot: churn moves links in/out of the cell and drifts geometry,
// packets arrive per an ArrivalProcess, the scheduler is invoked on the
// backlogged active links, and scheduled transmissions succeed or fail
// under per-slot fading evaluated on the *true* (drifted) geometry.
//
// Each slot the scheduler builds its engine over the backlogged subset of
// a bounded-staleness *snapshot* of the universe (refreshed by
// EngineRefreshPolicy). On the default kTables backend that build is
// O(m) per-link tables; every factor is evaluated on demand. Ground-truth
// transmission success always uses the current drifted positions, so a
// stale snapshot costs real failures, making the refresh cadence a
// measurable knob rather than a free win.
// That ground truth is the shared realization kernel sim::DrawRealization
// (fading_models.hpp) over a channel::MeanRxPowerTable of the drifted
// universe, as in the Monte-Carlo and feedback simulators.
//
// Determinism: arrivals, membership churn, mobility, and fading draw from
// four disjoint seeded substreams; fading additionally uses a fresh
// generator per slot keyed on (seed, slot), so a schedule difference in
// one slot cannot desynchronize later slots. Same (universe, params,
// scheduler, options) → byte-identical per-slot trace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "channel/batch_interference.hpp"
#include "channel/params.hpp"
#include "dynamics/arrivals.hpp"
#include "dynamics/churn.hpp"
#include "mathx/stats.hpp"
#include "net/link_set.hpp"
#include "sim/fading_models.hpp"

namespace fadesched::dynamics {

/// Bounded-staleness policy for the scheduling snapshot. Both triggers may
/// be active at once; with neither set the snapshot from slot 0 is used
/// for the whole run.
struct EngineRefreshPolicy {
  /// Refresh every this many slots (0 = no periodic refresh).
  std::size_t period_slots = 0;
  /// Refresh once this many staleness events (fading rechecks) accumulate
  /// since the last refresh (0 = no budget trigger).
  std::uint64_t churn_budget = 0;
};

/// One slot's observable outcome — the unit of the determinism trace and
/// the replay oracle diff.
struct SlotRecord {
  std::uint64_t slot = 0;
  std::uint64_t arrivals = 0;    ///< packets generated this slot
  std::uint64_t backlogged = 0;  ///< active links with nonempty queues
  net::Schedule schedule;        ///< scheduled links (universe ids, ascending)
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::uint64_t entered = 0;
  std::uint64_t left = 0;
  std::uint64_t fade_rechecks = 0;
  bool snapshot_refreshed = false;
  std::uint64_t total_backlog = 0;  ///< after this slot's transmissions
};

/// Canonical one-line rendering (the byte-identity unit of the trace
/// tests): every field in fixed order, schedule as comma-joined ids.
std::string FormatSlotRecord(const SlotRecord& record);

/// Exact packet conservation: every generated packet is delivered, dropped
/// (blocked at an inactive link, or overflowed a bounded queue), or still
/// queued. Holds after every slot, including interrupted runs.
struct PacketLedger {
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_blocked = 0;   ///< arrivals at handed-off links
  std::uint64_t dropped_overflow = 0;  ///< queue-capacity drops
  std::uint64_t residual = 0;          ///< queued when the run ended

  [[nodiscard]] bool Balanced() const {
    return arrivals ==
           delivered + dropped_blocked + dropped_overflow + residual;
  }
};

struct DynamicsOptions {
  std::size_t num_slots = 2000;
  /// Slots excluded from the backlog/delay statistics (the ledger and the
  /// trace always cover every slot).
  std::size_t warmup_slots = 200;
  std::uint64_t seed = 1;

  ArrivalSpec arrivals;
  ChurnOptions churn;
  sim::FadingOptions fading;

  /// Factor backend for the per-slot scheduling engine.
  channel::FactorBackend backend = channel::FactorBackend::kTables;
  EngineRefreshPolicy refresh;

  /// Per-link queue bound; arrivals beyond it are dropped (0 = unbounded).
  std::size_t queue_capacity = 0;

  /// Optional per-slot trace hook (called after each completed slot).
  std::function<void(const SlotRecord&)> slot_observer;
  /// Optional graceful-interrupt poll, checked at each slot boundary; a
  /// true return stops the run with `interrupted` set and the ledger
  /// still exactly balanced (the SIGTERM path of the conservation test).
  std::function<bool()> stop_requested;

  void Validate() const;
};

struct DynamicsResult {
  mathx::RunningStats backlog;      ///< post-warmup per-slot total backlog
  mathx::RunningStats delay_slots;  ///< post-warmup delivery delays
  /// Post-warmup delivery delays, in delivery order (percentile input).
  std::vector<double> delay_samples;
  /// Post-warmup per-slot total backlog (the drift-test input).
  std::vector<double> backlog_series;

  PacketLedger ledger;
  std::uint64_t scheduled_transmissions = 0;
  std::uint64_t failed_transmissions = 0;
  std::uint64_t slots_run = 0;
  bool interrupted = false;

  std::uint64_t snapshot_refreshes = 0;  ///< refreshes after the initial build
  std::uint64_t links_entered = 0;
  std::uint64_t links_left = 0;
  std::uint64_t fade_rechecks = 0;

  /// Slots that actually invoked the scheduler (nonempty backlog).
  std::uint64_t scheduled_slots = 0;

  [[nodiscard]] double FailureRate() const {
    return scheduled_transmissions == 0
               ? 0.0
               : static_cast<double>(failed_transmissions) /
                     static_cast<double>(scheduled_transmissions);
  }
};

/// Runs the slotted simulation with the named registered scheduler.
/// Deterministic given (universe, params, scheduler_name, options).
DynamicsResult RunSlottedSimulation(const net::LinkSet& universe,
                                    const channel::ChannelParams& params,
                                    const std::string& scheduler_name,
                                    const DynamicsOptions& options);

}  // namespace fadesched::dynamics
