#include "testing/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "channel/batch_interference.hpp"
#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "mathx/ulp.hpp"
#include "sched/exact.hpp"
#include "testing/metamorphic.hpp"
#include "util/check.hpp"

namespace fadesched::testing {
namespace {

// Relative slack for rate comparisons: summation order differs between
// schedulers and the oracle, so equality is up to accumulated rounding.
constexpr double kRateSlack = 1e-9;

// A schedule member whose budget margin is below this relative band sits
// on the feasibility knife edge; geometric metamorphic checks skip verdict
// and optimum-equality assertions there, because a last-ULP coordinate
// perturbation may legitimately flip the comparison.
constexpr double kKnifeEdgeBand = 1e-7;

bool RateLe(double a, double b) {
  return a <= b + kRateSlack * std::max({std::abs(a), std::abs(b), 1.0});
}

bool RateNear(double a, double b, double band) {
  return std::abs(a - b) <= band * std::max({std::abs(a), std::abs(b), 1.0});
}

bool WellFormed(const net::LinkSet& links, const net::Schedule& schedule,
                std::string& why) {
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    if (schedule[k] >= links.Size()) {
      why = "id " + std::to_string(schedule[k]) + " out of range";
      return false;
    }
    if (k > 0 && schedule[k] <= schedule[k - 1]) {
      why = "ids not strictly ascending at position " + std::to_string(k);
      return false;
    }
  }
  return true;
}

/// Exact-solver cross-validation state, computed once per instance.
struct ExactReference {
  double optimum = 0.0;
  net::Schedule schedule;
  /// Smallest relative budget margin over the optimum's members; a tiny
  /// margin marks a knife-edge instance (see kKnifeEdgeBand).
  double min_margin = std::numeric_limits<double>::infinity();
};

/// Per-instance shared state: reference calculator, lazily built engine
/// backends, lazily computed exact optimum.
class CaseContext {
 public:
  CaseContext(const ScenarioCase& scenario, const OracleOptions& options)
      : scenario_(scenario), options_(options),
        calc_(scenario.links, scenario.params) {}

  const ScenarioCase& Scenario() const { return scenario_; }
  const channel::InterferenceCalculator& Calc() const { return calc_; }

  const std::vector<channel::InterferenceEngine>& Engines() {
    if (engines_.empty()) {
      for (channel::FactorBackend backend :
           {channel::FactorBackend::kCalculator,
            channel::FactorBackend::kTables}) {
        channel::EngineOptions engine_options;
        engine_options.backend = backend;
        engines_.emplace_back(scenario_.links, scenario_.params,
                              engine_options);
      }
    }
    return engines_;
  }

  /// nullopt when the instance exceeds the exact cap.
  const ExactReference* Exact() {
    if (scenario_.links.Size() > options_.exact_cap) return nullptr;
    if (!exact_.has_value()) {
      const sched::BranchAndBoundScheduler solver;
      const sched::ScheduleResult result =
          solver.Schedule(scenario_.links, scenario_.params);
      ExactReference ref;
      ref.optimum = result.claimed_rate;
      ref.schedule = result.schedule;
      const double budget = scenario_.params.FeasibilityBudget();
      for (const channel::LinkFeasibility& lf :
           channel::AnalyzeSchedule(calc_, result.schedule)) {
        const double margin = budget - (lf.noise_factor + lf.sum_factor);
        ref.min_margin = std::min(ref.min_margin,
                                  margin / std::max(budget, 1e-300));
      }
      exact_ = std::move(ref);
    }
    return &*exact_;
  }

 private:
  const ScenarioCase& scenario_;
  const OracleOptions& options_;
  channel::InterferenceCalculator calc_;
  std::vector<channel::InterferenceEngine> engines_;
  std::optional<ExactReference> exact_;
};

}  // namespace

OracleHarness::OracleHarness(OracleOptions options)
    : options_(std::move(options)) {}

namespace {

class SchedulerChecker {
 public:
  SchedulerChecker(const OracleOptions& options,
                   const sched::SchedulerContract& contract,
                   CaseContext& context, std::vector<Violation>& out)
      : options_(options), contract_(contract), context_(context), out_(out) {}

  void Run() {
    const ScenarioCase& scenario = context_.Scenario();
    if (contract_.max_links != 0 &&
        scenario.links.Size() > contract_.max_links) {
      return;  // the scheduler refuses instances this large by contract
    }
    if (contract_.fuzz_cap != 0 && scenario.links.Size() > contract_.fuzz_cap) {
      return;  // too slow to re-run ~12x per instance; see SchedulerContract
    }
    sched::ScheduleResult base;
    try {
      base = MakeAndRun(scenario);
    } catch (const std::exception& e) {
      Report("exception", std::string("Schedule() threw: ") + e.what(),
             scenario);
      return;
    }
    try {
      CheckBasics(base, scenario, "");
      CheckDeterminism(base, scenario);
      if (options_.check_backends) CheckBackends(base.schedule);
      CheckExact(base, scenario);
      if (options_.metamorphic) CheckMetamorphic(base);
    } catch (const std::exception& e) {
      // A check infrastructure throw (e.g. an engine precondition) is a
      // finding too — degenerate geometry the model cannot represent.
      Report("exception", std::string("oracle check threw: ") + e.what(),
             scenario);
    }
  }

 private:
  sched::ScheduleResult MakeAndRun(const ScenarioCase& scenario) const {
    const sched::SchedulerPtr scheduler =
        options_.factory ? options_.factory(contract_.name)
                         : sched::MakeScheduler(contract_.name);
    return scheduler->Schedule(scenario.links, scenario.params);
  }

  void Report(const std::string& check, const std::string& detail,
              const ScenarioCase& scenario) {
    Violation v;
    v.scheduler = contract_.name;
    v.check = check;
    v.detail = detail + " [" + scenario.description + "]";
    v.scenario = scenario;
    out_.push_back(std::move(v));
  }

  /// Contract checks that apply to any run (base or transformed):
  /// well-formedness, claimed-rate accounting, Corollary 3.1 feasibility.
  /// `tag` suffixes the check id for transformed runs.
  bool CheckBasics(const sched::ScheduleResult& result,
                   const ScenarioCase& scenario, const std::string& tag) {
    bool ok = true;
    std::string why;
    if (!WellFormed(scenario.links, result.schedule, why)) {
      Report("well_formed" + tag, why, scenario);
      return false;  // downstream checks would index out of range
    }
    const double total = scenario.links.TotalRate(result.schedule);
    if (!RateNear(result.claimed_rate, total, kRateSlack)) {
      std::ostringstream os;
      os << "claimed_rate " << result.claimed_rate << " != schedule rate "
         << total;
      Report("well_formed" + tag, os.str(), scenario);
      ok = false;
    }
    if (contract_.fading_feasible && !result.schedule.empty()) {
      const channel::InterferenceCalculator calc(scenario.links,
                                                 scenario.params);
      const double budget = scenario.params.FeasibilityBudget();
      for (const channel::LinkFeasibility& lf :
           channel::AnalyzeSchedule(calc, result.schedule)) {
        if (!lf.informed) {
          std::ostringstream os;
          os << "link " << lf.link << " not informed: noise+sum = "
             << lf.noise_factor + lf.sum_factor << " > budget " << budget;
          Report("feasibility" + tag, os.str(), scenario);
          ok = false;
        }
      }
    }
    return ok;
  }

  void CheckDeterminism(const sched::ScheduleResult& base,
                        const ScenarioCase& scenario) {
    const sched::ScheduleResult again = MakeAndRun(scenario);
    if (again.schedule != base.schedule) {
      Report("determinism",
             "two runs from fresh instances returned different schedules (" +
                 std::to_string(base.schedule.size()) + " vs " +
                 std::to_string(again.schedule.size()) + " links)",
             scenario);
    }
  }

  void CheckBackends(const net::Schedule& schedule) {
    if (schedule.empty()) return;
    const ScenarioCase& scenario = context_.Scenario();
    const auto& engines = context_.Engines();
    for (net::LinkId victim : schedule) {
      const double ref = context_.Calc().SumFactor(schedule, victim);
      const double ref_noise = context_.Calc().NoiseFactor(victim);
      for (const channel::InterferenceEngine& engine : engines) {
        const double sum = engine.SumFactor(schedule, victim);
        const std::uint64_t sum_ulp = mathx::UlpDistance(sum, ref);
        const std::uint64_t noise_ulp =
            mathx::UlpDistance(engine.NoiseFactor(victim), ref_noise);
        if (sum_ulp > options_.backend_max_ulp ||
            noise_ulp > options_.backend_max_ulp) {
          std::ostringstream os;
          os << "backend " << static_cast<int>(engine.Backend())
             << " diverges from reference on victim " << victim << ": sum "
             << sum << " vs " << ref << " (" << sum_ulp << " ULP), noise "
             << noise_ulp << " ULP";
          Report("backend_ulp", os.str(), scenario);
        }
      }
    }
  }

  void CheckExact(const sched::ScheduleResult& base,
                  const ScenarioCase& scenario) {
    const ExactReference* exact = context_.Exact();
    if (exact == nullptr) return;
    // The informed subset of ANY schedule is itself feasible (dropping
    // non-informed members only removes interference), so its rate can
    // never beat the optimum.
    const double informed =
        channel::InformedRate(context_.Calc(), base.schedule);
    if (!RateLe(informed, exact->optimum)) {
      std::ostringstream os;
      os << "informed rate " << informed << " exceeds exact optimum "
         << exact->optimum;
      Report("exact_upper_bound", os.str(), scenario);
    }
    if (contract_.fading_feasible &&
        !RateLe(base.claimed_rate, exact->optimum)) {
      std::ostringstream os;
      os << "claimed rate " << base.claimed_rate
         << " of a feasible schedule exceeds exact optimum "
         << exact->optimum;
      Report("exact_upper_bound", os.str(), scenario);
    }
    if (contract_.exact &&
        !RateNear(base.claimed_rate, exact->optimum, kRateSlack)) {
      std::ostringstream os;
      os << "exact solver returned " << base.claimed_rate
         << " but the branch-and-bound optimum is " << exact->optimum;
      Report("exact_mismatch", os.str(), scenario);
    }
    if (contract_.nonempty_when_feasible && base.schedule.empty() &&
        exact->optimum > 0.0) {
      Report("exact_nonempty",
             "returned an empty schedule although the optimum is " +
                 std::to_string(exact->optimum),
             scenario);
    }
  }

  void CheckMetamorphic(const sched::ScheduleResult& base) {
    const ScenarioCase& scenario = context_.Scenario();
    const TransformedCase transforms[] = {
        PermuteLinks(scenario, 0x9e3779b9 + scenario.links.Size()),
        RigidMotion(scenario, 0.6, 17.0, -9.0),
        UniformScale(scenario, 2.0),
        RelaxEpsilon(scenario, 4.0),
        TightenGamma(scenario, 0.5),
    };
    for (const TransformedCase& t : transforms) {
      CheckMappedSchedule(base, t);
      CheckTransformedRun(base, t);
    }
  }

  /// Fixed-schedule invariance: the base run's schedule, mapped through
  /// the relabeling, must keep its per-victim sums (within the declared
  /// band) and its feasibility verdict (exactly for relaxations, outside
  /// the knife-edge band otherwise).
  void CheckMappedSchedule(const sched::ScheduleResult& base,
                           const TransformedCase& t) {
    if (base.schedule.empty()) return;
    const ScenarioCase& scenario = context_.Scenario();
    const channel::InterferenceCalculator calc_t(t.scenario.links,
                                                 t.scenario.params);
    const net::Schedule mapped = MapSchedule(base.schedule, t.relabel);
    const double budget_b = scenario.params.FeasibilityBudget();
    const double budget_t = t.scenario.params.FeasibilityBudget();
    for (net::LinkId victim : base.schedule) {
      const net::LinkId victim_t = t.relabel[victim];
      const double total_b = context_.Calc().NoiseFactor(victim) +
                             context_.Calc().SumFactor(base.schedule, victim);
      const double total_t =
          calc_t.NoiseFactor(victim_t) + calc_t.SumFactor(mapped, victim_t);
      if (t.relaxation) {
        // Factors shrink (γ_th↓) or stay put (ε↑) while the budget does
        // the opposite: a feasible member must stay feasible, exactly.
        if (budget_b - total_b >= 0.0 && budget_t - total_t < 0.0) {
          std::ostringstream os;
          os << t.name << ": victim " << victim << " lost feasibility under "
             << "a relaxation (margin " << budget_b - total_b << " -> "
             << budget_t - total_t << ")";
          Report(std::string("metamorphic_") + t.name, os.str(), t.scenario);
        }
        continue;
      }
      const bool close =
          t.bitwise_invariant
              ? mathx::UlpDistance(total_b, total_t) <= options_.backend_max_ulp
              : RateNear(total_b, total_t, kRateSlack);
      if (!close) {
        std::ostringstream os;
        os << t.name << ": victim " << victim << " interference sum moved "
           << total_b << " -> " << total_t;
        Report(std::string("metamorphic_") + t.name, os.str(), t.scenario);
        continue;
      }
      const double margin_b = budget_b - total_b;
      if (std::abs(margin_b) >
              kKnifeEdgeBand * std::max(budget_b, 1.0) &&
          (margin_b >= 0.0) != (budget_t - total_t >= 0.0)) {
        std::ostringstream os;
        os << t.name << ": victim " << victim
           << " feasibility verdict flipped (margin " << margin_b << ")";
        Report(std::string("metamorphic_") + t.name, os.str(), t.scenario);
      }
    }
  }

  /// Re-run the scheduler on the transformed instance: contract checks
  /// always, objective relations only where the theory proves them (the
  /// exact solvers; heuristic tie-breaking is id- and coordinate-
  /// sensitive by design).
  void CheckTransformedRun(const sched::ScheduleResult& base,
                           const TransformedCase& t) {
    sched::ScheduleResult transformed;
    try {
      transformed = MakeAndRun(t.scenario);
    } catch (const std::exception& e) {
      Report(std::string("metamorphic_") + t.name,
             std::string("Schedule() threw on transformed instance: ") +
                 e.what(),
             t.scenario);
      return;
    }
    const std::string tag = std::string("_") + t.name;
    if (!CheckBasics(transformed, t.scenario, tag)) return;
    if (!contract_.exact ||
        context_.Scenario().links.Size() > options_.exact_cap) {
      return;
    }
    const ExactReference* exact = context_.Exact();
    if (exact == nullptr || exact->min_margin < kKnifeEdgeBand) {
      return;  // knife-edge optimum: a last-ULP nudge may change OPT
    }
    if (t.relaxation) {
      if (!RateLe(base.claimed_rate, transformed.claimed_rate)) {
        std::ostringstream os;
        os << t.name << ": optimum decreased under a relaxation ("
           << base.claimed_rate << " -> " << transformed.claimed_rate << ")";
        Report(std::string("metamorphic_") + t.name, os.str(), t.scenario);
      }
    } else if (!RateNear(base.claimed_rate, transformed.claimed_rate,
                         kKnifeEdgeBand)) {
      std::ostringstream os;
      os << t.name << ": optimum moved under an invariant transform ("
         << base.claimed_rate << " -> " << transformed.claimed_rate << ")";
      Report(std::string("metamorphic_") + t.name, os.str(), t.scenario);
    }
  }

  const OracleOptions& options_;
  const sched::SchedulerContract& contract_;
  CaseContext& context_;
  std::vector<Violation>& out_;
};

}  // namespace

std::vector<Violation> OracleHarness::CheckCase(
    const ScenarioCase& scenario) const {
  std::vector<Violation> out;
  CaseContext context(scenario, options_);
  for (const sched::SchedulerContract& contract :
       sched::RegisteredSchedulers()) {
    if (!options_.schedulers.empty() &&
        std::find(options_.schedulers.begin(), options_.schedulers.end(),
                  contract.name) == options_.schedulers.end()) {
      continue;
    }
    SchedulerChecker(options_, contract, context, out).Run();
  }
  return out;
}

void OracleHarness::CheckScheduler(const sched::SchedulerContract& contract,
                                   const ScenarioCase& scenario,
                                   std::vector<Violation>& out) const {
  CaseContext context(scenario, options_);
  SchedulerChecker(options_, contract, context, out).Run();
}

}  // namespace fadesched::testing
