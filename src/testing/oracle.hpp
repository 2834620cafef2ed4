// Oracle harness: checks every registered scheduler's output against the
// paper's mechanically verifiable invariants on arbitrary instances.
//
// Per scheduler × instance, driven by the sched::SchedulerContract the
// scheduler registered:
//
//   well_formed    — ids strictly ascending and in range; claimed_rate
//                    equals Σλ of the schedule.
//   determinism    — a second run from a fresh instance returns the
//                    identical schedule (all registered schedulers are
//                    seeded, never wall-clock randomized).
//   feasibility    — every scheduled link informed per Corollary 3.1,
//                    judged by the reference InterferenceCalculator
//                    (contract.fading_feasible only).
//   backend_ulp    — per-victim interference sums from the kCalculator
//                    and kTables engine backends agree with the reference
//                    to ≤ max_ulp ULP.
//   exact_*        — on instances with N ≤ exact_cap, cross-validation
//                    against BranchAndBoundScheduler: the informed rate of
//                    ANY schedule is bounded by the optimum (removing
//                    non-informed links only shrinks interference, so the
//                    informed subset is itself feasible); feasible
//                    schedulers' claimed rate is bounded by the optimum;
//                    exact schedulers must match it; schedulers with
//                    contract.nonempty_when_feasible must return a link
//                    whenever some singleton is feasible.
//   metamorphic_*  — the transformations of testing/metamorphic.hpp:
//                    schedule-level invariance (relabeling, rigid motion,
//                    α-consistent scaling) and the proved direction under
//                    ε relaxation / γ_th tightening, both for the fixed
//                    base schedule and for the re-run scheduler.
//
// Heuristic tie-breaking is id-sensitive by design, so metamorphic checks
// never assert schedule *equality* for heuristics across relabelings —
// only contract compliance of the transformed run plus the invariance of
// the feasibility verdict of the mapped base schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "testing/corpus.hpp"

namespace fadesched::testing {

struct OracleOptions {
  /// Cross-validate against the exact solver when N ≤ exact_cap.
  std::size_t exact_cap = 14;
  /// Backend-agreement tolerance vs the reference calculator.
  std::uint64_t backend_max_ulp = 16;
  bool check_backends = true;
  bool metamorphic = true;
  /// Scheduler names to check; empty = every registered scheduler.
  std::vector<std::string> schedulers;
  /// Factory override, e.g. to check a planted-bug mutant in a mutation
  /// test; empty = sched::MakeScheduler.
  std::function<sched::SchedulerPtr(const std::string&)> factory;
};

struct Violation {
  std::string scheduler;
  std::string check;      ///< stable id, e.g. "feasibility", "backend_ulp"
  std::string detail;     ///< human-readable diagnosis
  ScenarioCase scenario;  ///< instance that produced it (post-transform)
};

class OracleHarness {
 public:
  explicit OracleHarness(OracleOptions options = {});

  /// Runs every selected registered scheduler on the instance and returns
  /// all violations found (empty = instance passed).
  [[nodiscard]] std::vector<Violation> CheckCase(
      const ScenarioCase& scenario) const;

  /// Checks one scheduler (by contract) on one instance. Exceptions from
  /// the scheduler surface as a violation with check == "exception".
  void CheckScheduler(const sched::SchedulerContract& contract,
                      const ScenarioCase& scenario,
                      std::vector<Violation>& out) const;

  [[nodiscard]] const OracleOptions& Options() const { return options_; }

 private:
  OracleOptions options_;
};

}  // namespace fadesched::testing
