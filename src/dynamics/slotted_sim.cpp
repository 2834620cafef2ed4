#include "dynamics/slotted_sim.hpp"

#include <deque>
#include <memory>
#include <utility>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "sched/registry.hpp"
#include "util/check.hpp"

namespace fadesched::dynamics {

namespace {

constexpr std::uint64_t kFadingSalt = 0xd1b54a32d192ed03ULL;

/// Fresh per-slot fading generator: keyed on (seed, slot) so a schedule
/// divergence in one slot cannot shift any later slot's draws.
rng::Xoshiro256 SlotFadingGen(std::uint64_t seed, std::uint64_t slot) {
  rng::SplitMix64 mix(seed ^ (kFadingSalt * (slot + 1)));
  return rng::Xoshiro256(mix.Next());
}

}  // namespace

std::string FormatSlotRecord(const SlotRecord& r) {
  std::string out = "slot=" + std::to_string(r.slot);
  out += " arrivals=" + std::to_string(r.arrivals);
  out += " backlogged=" + std::to_string(r.backlogged);
  out += " schedule=[";
  for (std::size_t k = 0; k < r.schedule.size(); ++k) {
    if (k > 0) out += ',';
    out += std::to_string(r.schedule[k]);
  }
  out += "] delivered=" + std::to_string(r.delivered);
  out += " failed=" + std::to_string(r.failed);
  out += " entered=" + std::to_string(r.entered);
  out += " left=" + std::to_string(r.left);
  out += " rechecks=" + std::to_string(r.fade_rechecks);
  out += " refresh=";
  out += r.snapshot_refreshed ? '1' : '0';
  out += " backlog=" + std::to_string(r.total_backlog);
  return out;
}

void DynamicsOptions::Validate() const {
  FS_CHECK_MSG(num_slots > 0, "simulation needs at least one slot");
  FS_CHECK_MSG(warmup_slots < num_slots,
               "warm-up must be shorter than the simulation");
  arrivals.Validate();
  churn.Validate();
  fading.Validate();
}

DynamicsResult RunSlottedSimulation(const net::LinkSet& universe,
                                    const channel::ChannelParams& params,
                                    const std::string& scheduler_name,
                                    const DynamicsOptions& options) {
  params.Validate();
  options.Validate();

  const std::size_t n = universe.Size();
  DynamicsResult result;
  if (n == 0) {
    result.slots_run = options.num_slots;
    return result;
  }

  ArrivalProcess arrivals(options.arrivals, n, options.seed);
  ChurnProcess churn(universe, options.churn, options.seed);

  channel::EngineOptions engine_options;
  engine_options.backend = options.backend;

  // Built once; each Schedule() call's ObtainEngine finds no shared
  // engine and builds one over that slot's backlogged subset.
  const sched::SchedulerPtr scheduler =
      sched::MakeScheduler(scheduler_name, engine_options);

  // The bounded-staleness snapshot the scheduler sees.
  std::unique_ptr<net::LinkSet> snapshot;
  std::uint64_t staleness_events = 0;
  std::size_t slots_since_refresh = 0;

  // FIFO of arrival slots per universe link; front = oldest packet.
  std::vector<std::deque<std::uint64_t>> queues(n);
  std::vector<net::LinkId> backlogged;
  std::vector<double> power;  // DrawRealization scratch
  std::uint64_t total_queued = 0;

  for (std::size_t slot = 0; slot < options.num_slots; ++slot) {
    if (options.stop_requested && options.stop_requested()) {
      result.interrupted = true;
      break;
    }

    SlotRecord record;
    record.slot = slot;

    // 1. Churn: membership flips, fading rechecks, geometry drift.
    const SlotChurn slot_churn = churn.Step();
    record.entered = slot_churn.entered;
    record.left = slot_churn.left;
    record.fade_rechecks = slot_churn.fade_rechecks;
    result.links_entered += slot_churn.entered;
    result.links_left += slot_churn.left;
    result.fade_rechecks += slot_churn.fade_rechecks;
    staleness_events += slot_churn.StalenessEvents();

    // 2. Snapshot refresh.
    const bool refresh =
        snapshot == nullptr ||
        (options.refresh.period_slots > 0 &&
         slots_since_refresh >= options.refresh.period_slots) ||
        (options.refresh.churn_budget > 0 &&
         staleness_events > options.refresh.churn_budget);
    if (refresh) {
      if (snapshot != nullptr) ++result.snapshot_refreshes;
      record.snapshot_refreshed = true;
      snapshot = std::make_unique<net::LinkSet>(churn.UniverseNow());
      staleness_events = 0;
      slots_since_refresh = 0;
    }
    ++slots_since_refresh;

    // 3. Arrivals — every link draws every slot (substream alignment);
    // arrivals at handed-off links are blocked, and bounded queues drop
    // the overflow. Both are accounted, so the ledger stays exact.
    const std::vector<char>& active = churn.Active();
    for (net::LinkId i = 0; i < n; ++i) {
      const std::uint64_t count = arrivals.ArrivalsFor(i);
      if (count == 0) continue;
      result.ledger.arrivals += count;
      record.arrivals += count;
      if (!active[i]) {
        result.ledger.dropped_blocked += count;
        continue;
      }
      for (std::uint64_t c = 0; c < count; ++c) {
        if (options.queue_capacity > 0 &&
            queues[i].size() >= options.queue_capacity) {
          ++result.ledger.dropped_overflow;
        } else {
          queues[i].push_back(slot);
          ++total_queued;
        }
      }
    }

    // 4. Schedule the backlogged active links on the snapshot geometry.
    backlogged.clear();
    for (net::LinkId i = 0; i < n; ++i) {
      if (active[i] && !queues[i].empty()) backlogged.push_back(i);
    }
    record.backlogged = backlogged.size();
    net::Schedule local_schedule;
    if (!backlogged.empty()) {
      const net::LinkSet sub = snapshot->Subset(backlogged);
      local_schedule = scheduler->Schedule(sub, params).schedule;
      ++result.scheduled_slots;
    }

    // 5. Fading + delivery, evaluated on the *current* drifted universe —
    // success is judged against reality, not the snapshot the scheduler
    // saw. One fading realization per scheduled (sender, receiver) pair,
    // drawn in fixed row-major order from the slot-keyed generator.
    const std::size_t s = local_schedule.size();
    if (s > 0) {
      record.schedule.reserve(s);
      for (const net::LinkId local : local_schedule) {
        record.schedule.push_back(backlogged[local]);
      }
      const std::vector<double> mean = channel::MeanRxPowerTable(
          churn.UniverseNow(), params, record.schedule);
      rng::Xoshiro256 fading_gen = SlotFadingGen(options.seed, slot);
      sim::DrawRealization(
          fading_gen, mean, s, params, options.fading, power,
          [&](std::size_t b, bool ok) {
            const net::LinkId link = record.schedule[b];
            ++result.scheduled_transmissions;
            if (ok) {
              const std::uint64_t arrived = queues[link].front();
              queues[link].pop_front();
              --total_queued;
              ++result.ledger.delivered;
              ++record.delivered;
              if (slot >= options.warmup_slots) {
                const auto delay = static_cast<double>(slot - arrived);
                result.delay_slots.Add(delay);
                result.delay_samples.push_back(delay);
              }
            } else {
              ++result.failed_transmissions;
              ++record.failed;
            }
          });
    }

    // 6. Backlog sample (after transmissions). Queues of handed-off links
    // stay frozen and keep counting — their packets are still in the
    // system and resume service if the link re-enters.
    record.total_backlog = total_queued;
    if (slot >= options.warmup_slots) {
      result.backlog.Add(static_cast<double>(total_queued));
      result.backlog_series.push_back(static_cast<double>(total_queued));
    }
    ++result.slots_run;

    if (options.slot_observer) options.slot_observer(record);
  }

  result.ledger.residual = total_queued;
  FS_CHECK_MSG(result.ledger.Balanced(),
               "packet ledger out of balance — simulator accounting bug");
  return result;
}

}  // namespace fadesched::dynamics
