// Dynamic-scenario fuzzing: the `dynamic` fuzz family.
//
// A dynamic case is a static fuzzed topology (reusing ScenarioFuzzer's
// adversarial geometry/channel families) plus randomized *dynamics*
// knobs — arrival family and load, churn probabilities, drift, engine
// refresh cadence, queue capacity, backend, fading model, and the
// scheduler under test. Cases are pure in (master seed, index), same as
// the static fuzzer.
//
// The oracle is the replay contract of the dynamics subsystem: a re-run of
// the case must reproduce its per-slot trace *byte-identically* (seed
// determinism). Packet-ledger conservation is FS_CHECKed inside the
// simulator; a thrown check surfaces here as a "crash" outcome.
//
// Failures shrink to a minimal `.dynscenario` reproducer: ddmin over the
// link set (via ShrinkScenario), then slot-count halving, then
// best-effort knob simplification (drop churn, unbound the queue, revert
// to Rayleigh fading, drop the refresh policy) — each step kept only if
// the same oracle check still fails.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dynamics/slotted_sim.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::testing {

/// One dynamic fuzz instance: static scenario + dynamics knobs + the
/// scheduler under test. `dynamics.slot_observer` / `stop_requested` are
/// never serialized and must stay empty in corpus files.
struct DynamicCase {
  ScenarioCase scenario;
  std::string scheduler;
  dynamics::DynamicsOptions dynamics;
};

struct DynFuzzerOptions {
  /// Topology families for the embedded static scenario. Smaller default
  /// cap than the static fuzzer: the oracle runs the slotted simulator
  /// twice per case.
  FuzzerOptions topology{.min_links = 2, .max_links = 14};
  std::size_t min_slots = 40;
  std::size_t max_slots = 160;
  /// Allow churn (membership + drift + fade rechecks) on a fraction of
  /// cases; false pins a static universe.
  bool with_churn = true;
  /// Schedulers to draw from; empty = the engine-aware registry subset
  /// (DefaultDynamicSchedulers).
  std::vector<std::string> schedulers;
};

/// The schedulers the dynamic family exercises by default.
std::vector<std::string> DefaultDynamicSchedulers();

/// Deterministic dynamic-case generator; pure in (seed, index).
class DynamicFuzzer {
 public:
  explicit DynamicFuzzer(std::uint64_t seed, DynFuzzerOptions options = {});

  [[nodiscard]] DynamicCase Case(std::uint64_t index) const;
  DynamicCase Next() { return Case(next_index_++); }
  [[nodiscard]] std::uint64_t NextIndex() const { return next_index_; }

 private:
  std::uint64_t seed_;
  DynFuzzerOptions options_;
  std::uint64_t next_index_ = 0;
};

/// Serialize to the `.dynscenario` text format: a line-oriented dynamics
/// header, then `scenario:` followed by the embedded `.scenario` v1 text.
std::string FormatDynScenario(const DynamicCase& dyn);

/// Parse the `.dynscenario` format; throws CheckFailure naming the
/// offending 1-based line on malformed input.
DynamicCase ParseDynScenario(const std::string& text);

/// File round-trips (atomic save, same contract as the static corpus).
void SaveDynScenarioFile(const DynamicCase& dyn, const std::string& path);
DynamicCase LoadDynScenarioFile(const std::string& path);

/// Oracle outcome for one dynamic case.
struct DynOracleOutcome {
  bool ok = true;
  /// Stable failure identity: "replay_divergence" or "crash". Empty when
  /// ok.
  std::string check;
  /// Human-readable detail (first diverging slot + both trace lines, or
  /// the exception message).
  std::string detail;
};

/// Runs the replay oracle. Never throws: simulator exceptions (including
/// ledger FS_CHECK failures) become a "crash" outcome.
DynOracleOutcome CheckDynamicCase(const DynamicCase& dyn);

struct DynShrinkOptions {
  /// Upper bound on oracle evaluations across all shrink phases.
  std::size_t max_evaluations = 300;
};

struct DynShrinkResult {
  DynamicCase shrunk;
  std::size_t evaluations = 0;
  /// True when the link-set phase reached 1-minimality within budget.
  bool links_minimal = false;
};

/// Shrinks `failing` (which must fail CheckDynamicCase) while preserving
/// the original outcome's `check` identity.
DynShrinkResult ShrinkDynamicCase(const DynamicCase& failing,
                                  const DynShrinkOptions& options = {});

struct DynFuzzFailure {
  DynamicCase original;
  DynOracleOutcome outcome;  ///< first occurrence
  DynamicCase shrunk;        ///< minimal reproducer (== original if !shrink)
  std::string corpus_path;   ///< file written under corpus_dir, if any
};

struct DynFuzzReport {
  std::uint64_t iterations_run = 0;
  std::uint64_t cases_with_failures = 0;
  std::vector<DynFuzzFailure> failures;  ///< deduped by (scheduler, check)
  [[nodiscard]] bool Ok() const { return failures.empty(); }
};

struct DynFuzzDriverOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 200;
  DynFuzzerOptions fuzzer;
  bool shrink = true;
  DynShrinkOptions shrinker;
  /// Directory for shrunk `.dynscenario` reproducers; empty = don't write.
  std::string corpus_dir;
  /// Stop after this many distinct (scheduler, check) failures.
  std::size_t max_failures = 4;
  std::function<void(const std::string&)> log;
  std::uint64_t log_every = 50;
};

/// The generate → check → shrink → persist loop behind
/// `fadesched_cli fuzz --dynamic`.
DynFuzzReport RunDynamicFuzz(const DynFuzzDriverOptions& options);

}  // namespace fadesched::testing
