// Versioned on-disk checkpoint of sweep progress: one text format, the
// series × metric grid RunMetricSweep persists.
//
// After every completed seed (and point) the sweep driver persists, via
// an atomic write, everything needed to resume bit-identically: for each
// point a RunningStats accumulator per (series, metric) — raw Welford
// moments, serialized as C99 hex-float literals so doubles round-trip
// exactly — the number of seeds finished, and the failure counters. A
// fingerprint of the sweep configuration guards resume: a checkpoint
// written under a different config refuses to load rather than silently
// mixing incompatible aggregates. Any other text, including the
// per-algorithm format of older builds, is refused as corrupt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace fadesched::sim {

/// Progress of one sweep point: a RunningStats accumulator per
/// (series, metric), flattened row-major as
/// stats[series_index * num_metrics + metric_index].
struct MetricPointCheckpoint {
  double x = 0.0;                   ///< the sweep's x value
  std::size_t seeds_done = 0;       ///< seeds folded into `stats`
  std::size_t failed_seeds = 0;     ///< seeds abandoned after retries
  std::size_t timed_out_seeds = 0;  ///< subset of failed: watchdog
  bool complete = false;            ///< all seeds accounted for
  std::vector<mathx::RunningStats> stats;
};

struct MetricSweepCheckpoint {
  static constexpr int kFormatVersion = 1;

  std::uint64_t fingerprint = 0;     ///< config hash; see FingerprintMix64
  std::vector<std::string> series;   ///< whitespace-free names
  std::vector<std::string> metrics;  ///< whitespace-free names
  std::vector<MetricPointCheckpoint> points;

  /// Text round-trip. Serialize writes a line-oriented format with
  /// hex-float doubles; Deserialize throws HarnessError(kFatal) on any
  /// malformed or version-mismatched input.
  [[nodiscard]] std::string Serialize() const;
  static MetricSweepCheckpoint Deserialize(const std::string& text);

  /// Atomic save; a crash mid-save leaves the previous checkpoint intact.
  void Save(const std::string& path) const;

  /// Loads `path` if it exists. Returns false (and leaves *this empty)
  /// when there is no checkpoint yet; throws HarnessError(kFatal) when
  /// the file exists but is corrupt, and when `expected_fingerprint`
  /// differs from the stored one — a changed config must not resume into
  /// a stale checkpoint.
  static bool Load(const std::string& path,
                   std::uint64_t expected_fingerprint,
                   MetricSweepCheckpoint& out);
};

/// RunExperimentSweep's progress held per algorithm, for callers that
/// build AlgoSummary aggregates themselves.
struct PointCheckpoint {
  double x = 0.0;
  std::size_t seeds_done = 0;
  std::size_t failed_seeds = 0;
  std::size_t timed_out_seeds = 0;
  bool complete = false;
  /// Aggregates over finished seeds; empty for a point not yet started.
  std::vector<AlgoSummary> summaries;
};

/// The AlgoSummary view of a sweep checkpoint. It is stored as the grid
/// RunExperimentSweep persists: series are the algorithms, metrics the
/// kSummaryStats accumulators.
struct SweepCheckpoint {
  std::uint64_t fingerprint = 0;
  std::vector<PointCheckpoint> points;

  /// The grid form. Points without summaries get empty accumulators;
  /// throws HarnessError(kFatal) when points disagree on the algorithms.
  [[nodiscard]] MetricSweepCheckpoint ToGrid() const;
  void Save(const std::string& path) const;
};

/// FNV-1a-style 64-bit mixing helpers for config fingerprints.
std::uint64_t FingerprintInit();
std::uint64_t FingerprintMix64(std::uint64_t h, std::uint64_t value);
std::uint64_t FingerprintMixDouble(std::uint64_t h, double value);
std::uint64_t FingerprintMixString(std::uint64_t h, const std::string& text);

/// Fingerprint of everything that defines a sweep's results: sweep name,
/// x values, algorithms, seed/trial counts, fading options, and every
/// point's channel + scenario parameters.
std::uint64_t FingerprintSweep(const std::string& sweep_name,
                               const std::vector<double>& xs,
                               const ExperimentConfig& config,
                               const std::vector<ExperimentPoint>& points);

}  // namespace fadesched::sim
