#include "testing/dyn_fuzzer.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "rng/distributions.hpp"
#include "testing/shrinker.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace fadesched::testing {
namespace {

constexpr const char* kDynMagic = "# fadesched dynscenario v1";

// Case-derivation salts (distinct odd constants, same discipline as the
// dynamics substreams): one stream for the embedded topology, one for the
// dynamics knobs, so adding knob draws never perturbs the geometry.
constexpr std::uint64_t kTopologySalt = 0x8cb92ba72f3d8dd7ULL;
constexpr std::uint64_t kKnobSalt = 0xe7037ed1a0b428dbULL;

/// 17-significant-digit double rendering, same as the static corpus.
std::string Num(double value) {
  std::string out;
  util::AppendDoubleG17(out, value);
  return out;
}

const char* BackendName(channel::FactorBackend backend) {
  switch (backend) {
    case channel::FactorBackend::kCalculator: return "calculator";
    case channel::FactorBackend::kTables: return "tables";
  }
  return "?";
}

bool ParseBackend(std::string_view name, channel::FactorBackend& out) {
  if (name == "calculator") {
    out = channel::FactorBackend::kCalculator;
  } else if (name == "tables") {
    out = channel::FactorBackend::kTables;
  } else {
    return false;
  }
  return true;
}

bool ParseFadingModel(std::string_view name, sim::FadingModel& out) {
  if (name == "rayleigh") {
    out = sim::FadingModel::kRayleigh;
  } else if (name == "nakagami") {
    out = sim::FadingModel::kNakagami;
  } else if (name == "shadowed") {
    out = sim::FadingModel::kShadowedRayleigh;
  } else {
    return false;
  }
  return true;
}

std::uint64_t ParseU64(std::string_view text, std::size_t line) {
  const std::string copy(util::Trim(text));
  FS_CHECK_MSG(!copy.empty() && copy.find_first_not_of("0123456789") ==
                                    std::string::npos,
               "dynscenario line " + std::to_string(line) +
                   ": expected unsigned integer, got '" + copy + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  FS_CHECK_MSG(errno == 0 && end == copy.c_str() + copy.size(),
               "dynscenario line " + std::to_string(line) +
                   ": integer out of range: '" + copy + "'");
  return static_cast<std::uint64_t>(value);
}

double ParseNum(std::string_view text, std::size_t line) {
  const auto value = util::ParseDouble(util::Trim(text));
  FS_CHECK_MSG(value.has_value(), "dynscenario line " + std::to_string(line) +
                                      ": expected number, got '" +
                                      std::string(util::Trim(text)) + "'");
  return *value;
}

std::string SanitizeForFilename(std::string text) {
  for (char& c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return text;
}

/// Runs the case and captures the per-slot trace.
std::vector<std::string> TraceRun(const DynamicCase& dyn) {
  dynamics::DynamicsOptions options = dyn.dynamics;
  std::vector<std::string> trace;
  trace.reserve(options.num_slots);
  options.slot_observer = [&trace](const dynamics::SlotRecord& record) {
    trace.push_back(dynamics::FormatSlotRecord(record));
  };
  options.stop_requested = nullptr;
  dynamics::RunSlottedSimulation(dyn.scenario.links, dyn.scenario.params,
                                 dyn.scheduler, options);
  return trace;
}

/// Empty string when identical; otherwise the first diverging slot with
/// both renderings.
std::string DiffTraces(const std::vector<std::string>& a,
                       const std::vector<std::string>& b, const char* name_a,
                       const char* name_b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      std::ostringstream os;
      os << "traces diverge at slot " << i << ": " << name_a << " {" << a[i]
         << "} vs " << name_b << " {" << b[i] << "}";
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "trace lengths differ: " << name_a << " has " << a.size() << ", "
       << name_b << " has " << b.size() << " slots";
    return os.str();
  }
  return {};
}

}  // namespace

std::vector<std::string> DefaultDynamicSchedulers() {
  // The engine-aware registry subset (these obtain an engine over every
  // slot's backlogged subset), plus the geometry-only greedy as a control.
  return {"ldp",   "rle",         "fading_greedy",
          "approx_diversity",     "approx_logn",
          "graph_greedy"};
}

DynamicFuzzer::DynamicFuzzer(std::uint64_t seed, DynFuzzerOptions options)
    : seed_(seed), options_(std::move(options)) {
  if (options_.schedulers.empty()) {
    options_.schedulers = DefaultDynamicSchedulers();
  }
  FS_CHECK_MSG(options_.min_slots >= 2 &&
                   options_.min_slots <= options_.max_slots,
               "dynamic fuzzer slot range invalid");
}

DynamicCase DynamicFuzzer::Case(std::uint64_t index) const {
  DynamicCase dyn;
  const ScenarioFuzzer topology(seed_ ^ kTopologySalt, options_.topology);
  dyn.scenario = topology.Case(index);

  rng::SplitMix64 mix(seed_ ^ (kKnobSalt * (index + 1)));
  rng::Xoshiro256 gen(mix.Next());
  dynamics::DynamicsOptions& d = dyn.dynamics;

  dyn.scheduler = options_.schedulers[static_cast<std::size_t>(
      rng::UniformIndex(gen, options_.schedulers.size()))];

  d.num_slots = options_.min_slots +
                static_cast<std::size_t>(rng::UniformIndex(
                    gen, options_.max_slots - options_.min_slots + 1));
  d.warmup_slots = d.num_slots / 8;
  d.seed = gen();

  d.backend = rng::UniformIndex(gen, 2) == 0
                  ? channel::FactorBackend::kCalculator
                  : channel::FactorBackend::kTables;

  d.queue_capacity = rng::UniformIndex(gen, 4) == 0
                         ? 1 + static_cast<std::size_t>(
                                   rng::UniformIndex(gen, 6))
                         : 0;

  // Arrival knobs: every parameter is drawn unconditionally so the draw
  // count per case is family-independent (case purity under option edits).
  const auto families = dynamics::AllArrivalFamilies();
  d.arrivals.family = families[static_cast<std::size_t>(
      rng::UniformIndex(gen, families.size()))];
  d.arrivals.rate = rng::UniformRange(gen, 0.02, 0.3);
  d.arrivals.duty_cycle = rng::UniformRange(gen, 0.3, 0.8);
  d.arrivals.mean_burst_slots = rng::UniformRange(gen, 2.0, 16.0);
  d.arrivals.bucket_depth =
      1.0 + static_cast<double>(rng::UniformIndex(gen, 8));
  d.arrivals.release_probability = rng::UniformRange(gen, 0.0, 0.5);
  if (d.arrivals.family == dynamics::ArrivalFamily::kOnOff) {
    d.arrivals.rate = std::min(d.arrivals.rate, d.arrivals.duty_cycle * 0.9);
  }

  // Churn knobs, drawn unconditionally for the same reason.
  const bool churn_on = rng::UniformIndex(gen, 2) == 0;
  const double leave = rng::UniformRange(gen, 0.0, 0.05);
  const double enter = rng::UniformRange(gen, 0.05, 0.25);
  const double fade = rng::UniformRange(gen, 0.0, 0.1);
  const std::size_t drift =
      static_cast<std::size_t>(rng::UniformIndex(gen, 3));
  if (options_.with_churn && churn_on) {
    d.churn.enabled = true;
    d.churn.leave_probability = leave;
    d.churn.enter_probability = enter;
    d.churn.fade_recheck_probability = fade;
    d.churn.drift_steps_per_slot = drift;
    const geom::Aabb box = dyn.scenario.links.BoundingBox();
    const double extent =
        std::max({std::abs(box.lo.x), std::abs(box.lo.y), std::abs(box.hi.x),
                  std::abs(box.hi.y), 10.0});
    d.churn.mobility.region_size = extent * 1.5;
    d.churn.mobility.min_speed = extent * 0.001;
    d.churn.mobility.max_speed = extent * 0.01;
  }

  const std::uint64_t refresh_mode = rng::UniformIndex(gen, 4);
  const std::size_t period_draw =
      4 + static_cast<std::size_t>(rng::UniformIndex(gen, 29));
  const std::uint64_t budget_draw = 1 + rng::UniformIndex(gen, 16);
  if (refresh_mode == 1 || refresh_mode == 3) {
    d.refresh.period_slots = period_draw;
  }
  if (refresh_mode == 2 || refresh_mode == 3) {
    d.refresh.churn_budget = budget_draw;
  }

  const std::uint64_t fading_draw = rng::UniformIndex(gen, 4);
  const double nakagami_m = rng::UniformRange(gen, 0.5, 3.0);
  const double sigma_db = rng::UniformRange(gen, 2.0, 8.0);
  if (fading_draw == 2) {
    d.fading.model = sim::FadingModel::kNakagami;
    d.fading.nakagami_m = nakagami_m;
  } else if (fading_draw == 3) {
    d.fading.model = sim::FadingModel::kShadowedRayleigh;
    d.fading.shadowing_sigma_db = sigma_db;
  }

  d.Validate();
  return dyn;
}

std::string FormatDynScenario(const DynamicCase& dyn) {
  const dynamics::DynamicsOptions& d = dyn.dynamics;
  std::ostringstream os;
  os << kDynMagic << "\n";
  os << "scheduler = " << dyn.scheduler << "\n";
  os << "engine_backend = " << BackendName(d.backend) << "\n";
  os << "num_slots = " << d.num_slots << "\n";
  os << "warmup_slots = " << d.warmup_slots << "\n";
  os << "dyn_seed = " << d.seed << "\n";
  os << "queue_capacity = " << d.queue_capacity << "\n";
  os << "arrival_family = " << dynamics::ArrivalFamilyName(d.arrivals.family)
     << "\n";
  os << "arrival_rate = " << Num(d.arrivals.rate) << "\n";
  os << "duty_cycle = " << Num(d.arrivals.duty_cycle) << "\n";
  os << "mean_burst_slots = " << Num(d.arrivals.mean_burst_slots) << "\n";
  os << "bucket_depth = " << Num(d.arrivals.bucket_depth) << "\n";
  os << "release_probability = " << Num(d.arrivals.release_probability)
     << "\n";
  os << "churn_enabled = " << (d.churn.enabled ? 1 : 0) << "\n";
  os << "leave_probability = " << Num(d.churn.leave_probability) << "\n";
  os << "enter_probability = " << Num(d.churn.enter_probability) << "\n";
  os << "fade_recheck_probability = "
     << Num(d.churn.fade_recheck_probability) << "\n";
  os << "drift_steps_per_slot = " << d.churn.drift_steps_per_slot << "\n";
  os << "region_size = " << Num(d.churn.mobility.region_size) << "\n";
  os << "min_speed = " << Num(d.churn.mobility.min_speed) << "\n";
  os << "max_speed = " << Num(d.churn.mobility.max_speed) << "\n";
  os << "repick_probability = " << Num(d.churn.mobility.repick_probability)
     << "\n";
  os << "refresh_period_slots = " << d.refresh.period_slots << "\n";
  os << "refresh_churn_budget = " << d.refresh.churn_budget << "\n";
  os << "fading_model = " << sim::FadingModelName(d.fading.model) << "\n";
  os << "nakagami_m = " << Num(d.fading.nakagami_m) << "\n";
  os << "shadowing_sigma_db = " << Num(d.fading.shadowing_sigma_db) << "\n";
  os << "scenario:\n";
  os << FormatScenario(dyn.scenario);
  return os.str();
}

DynamicCase ParseDynScenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;

  FS_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
               "dynscenario: empty input");
  ++line_number;
  FS_CHECK_MSG(util::Trim(line) == kDynMagic,
               "dynscenario line 1: expected magic '" +
                   std::string(kDynMagic) + "'");

  DynamicCase dyn;
  dynamics::DynamicsOptions& d = dyn.dynamics;
  bool saw_scenario_block = false;
  bool saw_scheduler = false;

  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (trimmed == "scenario:") {
      saw_scenario_block = true;
      break;
    }
    const std::size_t eq = trimmed.find('=');
    FS_CHECK_MSG(eq != std::string_view::npos,
                 "dynscenario line " + std::to_string(line_number) +
                     ": expected 'key = value', got '" + std::string(trimmed) +
                     "'");
    const std::string key(util::Trim(trimmed.substr(0, eq)));
    const std::string_view value = util::Trim(trimmed.substr(eq + 1));
    const std::size_t n = line_number;

    if (key == "scheduler") {
      dyn.scheduler = std::string(value);
      saw_scheduler = true;
    } else if (key == "engine_backend") {
      FS_CHECK_MSG(ParseBackend(value, d.backend),
                   "dynscenario line " + std::to_string(n) +
                       ": unknown backend '" + std::string(value) + "'");
    } else if (key == "num_slots") {
      d.num_slots = static_cast<std::size_t>(ParseU64(value, n));
    } else if (key == "warmup_slots") {
      d.warmup_slots = static_cast<std::size_t>(ParseU64(value, n));
    } else if (key == "dyn_seed") {
      d.seed = ParseU64(value, n);
    } else if (key == "queue_capacity") {
      d.queue_capacity = static_cast<std::size_t>(ParseU64(value, n));
    } else if (key == "arrival_family") {
      FS_CHECK_MSG(dynamics::ParseArrivalFamily(value, d.arrivals.family),
                   "dynscenario line " + std::to_string(n) +
                       ": unknown arrival family '" + std::string(value) +
                       "'");
    } else if (key == "arrival_rate") {
      d.arrivals.rate = ParseNum(value, n);
    } else if (key == "duty_cycle") {
      d.arrivals.duty_cycle = ParseNum(value, n);
    } else if (key == "mean_burst_slots") {
      d.arrivals.mean_burst_slots = ParseNum(value, n);
    } else if (key == "bucket_depth") {
      d.arrivals.bucket_depth = ParseNum(value, n);
    } else if (key == "release_probability") {
      d.arrivals.release_probability = ParseNum(value, n);
    } else if (key == "churn_enabled") {
      d.churn.enabled = ParseU64(value, n) != 0;
    } else if (key == "leave_probability") {
      d.churn.leave_probability = ParseNum(value, n);
    } else if (key == "enter_probability") {
      d.churn.enter_probability = ParseNum(value, n);
    } else if (key == "fade_recheck_probability") {
      d.churn.fade_recheck_probability = ParseNum(value, n);
    } else if (key == "drift_steps_per_slot") {
      d.churn.drift_steps_per_slot =
          static_cast<std::size_t>(ParseU64(value, n));
    } else if (key == "region_size") {
      d.churn.mobility.region_size = ParseNum(value, n);
    } else if (key == "min_speed") {
      d.churn.mobility.min_speed = ParseNum(value, n);
    } else if (key == "max_speed") {
      d.churn.mobility.max_speed = ParseNum(value, n);
    } else if (key == "repick_probability") {
      d.churn.mobility.repick_probability = ParseNum(value, n);
    } else if (key == "refresh_period_slots") {
      d.refresh.period_slots = static_cast<std::size_t>(ParseU64(value, n));
    } else if (key == "refresh_churn_budget") {
      d.refresh.churn_budget = ParseU64(value, n);
    } else if (key == "fading_model") {
      FS_CHECK_MSG(ParseFadingModel(value, d.fading.model),
                   "dynscenario line " + std::to_string(n) +
                       ": unknown fading model '" + std::string(value) + "'");
    } else if (key == "nakagami_m") {
      d.fading.nakagami_m = ParseNum(value, n);
    } else if (key == "shadowing_sigma_db") {
      d.fading.shadowing_sigma_db = ParseNum(value, n);
    } else {
      FS_CHECK_MSG(false, "dynscenario line " + std::to_string(n) +
                              ": unknown key '" + key + "'");
    }
  }

  FS_CHECK_MSG(saw_scenario_block, "dynscenario: missing 'scenario:' block");
  FS_CHECK_MSG(saw_scheduler, "dynscenario: missing 'scheduler' key");

  std::ostringstream rest;
  rest << in.rdbuf();
  dyn.scenario = ParseScenario(rest.str());
  d.Validate();
  return dyn;
}

void SaveDynScenarioFile(const DynamicCase& dyn, const std::string& path) {
  util::AtomicWriteFile(path, FormatDynScenario(dyn));
}

DynamicCase LoadDynScenarioFile(const std::string& path) {
  return ParseDynScenario(util::ReadFileToString(path));
}

DynOracleOutcome CheckDynamicCase(const DynamicCase& dyn) {
  DynOracleOutcome out;
  try {
    const auto first = TraceRun(dyn);
    const auto replay = TraceRun(dyn);
    std::string diff = DiffTraces(first, replay, "run1", "run2");
    if (!diff.empty()) {
      out.ok = false;
      out.check = "replay_divergence";
      out.detail = std::move(diff);
      return out;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.check = "crash";
    out.detail = e.what();
  }
  return out;
}

DynShrinkResult ShrinkDynamicCase(const DynamicCase& failing,
                                  const DynShrinkOptions& options) {
  const DynOracleOutcome original = CheckDynamicCase(failing);
  FS_CHECK_MSG(!original.ok,
               "ShrinkDynamicCase: input does not fail the oracle");

  DynShrinkResult result;
  result.shrunk = failing;
  std::size_t budget = options.max_evaluations;

  const auto still_fails = [&](const DynamicCase& candidate) {
    if (budget == 0) return false;
    --budget;
    ++result.evaluations;
    const DynOracleOutcome out = CheckDynamicCase(candidate);
    return !out.ok && out.check == original.check;
  };

  // Phase 1: ddmin over the link set via the static shrinker. Roughly
  // half the budget, so slot/knob reduction always gets a chance.
  if (budget > 2) {
    const FailurePredicate predicate = [&](const ScenarioCase& candidate) {
      if (candidate.links.Size() == 0) return false;
      DynamicCase dyn = result.shrunk;
      dyn.scenario = candidate;
      return still_fails(dyn);
    };
    ShrinkOptions link_options;
    link_options.max_evaluations = budget / 2;
    const ShrinkResult links =
        ShrinkScenario(result.shrunk.scenario, predicate, link_options);
    result.shrunk.scenario = links.scenario;
    result.links_minimal = links.minimal;
  }

  // Phase 2: halve the slot count (clamping warmup with it).
  while (budget > 0 && result.shrunk.dynamics.num_slots > 8) {
    DynamicCase candidate = result.shrunk;
    candidate.dynamics.num_slots =
        std::max<std::size_t>(8, candidate.dynamics.num_slots / 2);
    candidate.dynamics.warmup_slots = std::min(
        candidate.dynamics.warmup_slots, candidate.dynamics.num_slots / 4);
    if (!still_fails(candidate)) break;
    result.shrunk = candidate;
  }

  // Phase 3: best-effort knob simplification — each accepted only if the
  // same failure class survives.
  const auto try_knob = [&](auto&& mutate) {
    if (budget == 0) return;
    DynamicCase candidate = result.shrunk;
    mutate(candidate);
    if (still_fails(candidate)) result.shrunk = std::move(candidate);
  };
  try_knob([](DynamicCase& c) { c.dynamics.churn = dynamics::ChurnOptions{}; });
  try_knob([](DynamicCase& c) { c.dynamics.queue_capacity = 0; });
  try_knob([](DynamicCase& c) { c.dynamics.fading = sim::FadingOptions{}; });
  try_knob(
      [](DynamicCase& c) { c.dynamics.refresh = dynamics::EngineRefreshPolicy{}; });

  return result;
}

DynFuzzReport RunDynamicFuzz(const DynFuzzDriverOptions& options) {
  const DynamicFuzzer fuzzer(options.seed, options.fuzzer);
  DynFuzzReport report;
  std::set<std::pair<std::string, std::string>> seen;  // (scheduler, check)

  const auto log = [&](const std::string& message) {
    if (options.log) options.log(message);
  };

  for (std::uint64_t index = 0; index < options.iterations; ++index) {
    if (report.failures.size() >= options.max_failures) break;
    const DynamicCase dyn = fuzzer.Case(index);
    const DynOracleOutcome outcome = CheckDynamicCase(dyn);
    ++report.iterations_run;
    if (options.log_every != 0 && (index + 1) % options.log_every == 0) {
      std::ostringstream os;
      os << "dynfuzz: " << (index + 1) << "/" << options.iterations
         << " cases, " << report.failures.size() << " distinct failure(s)";
      log(os.str());
    }
    if (outcome.ok) continue;
    ++report.cases_with_failures;
    if (!seen.insert({dyn.scheduler, outcome.check}).second) continue;

    DynFuzzFailure failure;
    failure.original = dyn;
    failure.outcome = outcome;
    failure.shrunk = dyn;
    if (options.shrink) {
      failure.shrunk = ShrinkDynamicCase(dyn, options.shrinker).shrunk;
    }

    if (!options.corpus_dir.empty()) {
      std::ostringstream name;
      name << options.corpus_dir << "/dyn-seed" << options.seed << "-i"
           << index << "-" << SanitizeForFilename(dyn.scheduler) << "-"
           << SanitizeForFilename(outcome.check) << ".dynscenario";
      failure.corpus_path = name.str();
      SaveDynScenarioFile(failure.shrunk, failure.corpus_path);
    }

    std::ostringstream os;
    os << "dynfuzz FAILURE [" << dyn.scheduler << "/" << outcome.check
       << "] at case " << index << ": " << outcome.detail << " (shrunk to "
       << failure.shrunk.scenario.links.Size() << " links, "
       << failure.shrunk.dynamics.num_slots << " slots"
       << (failure.corpus_path.empty() ? ""
                                       : ", wrote " + failure.corpus_path)
       << ")";
    log(os.str());
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace fadesched::testing
