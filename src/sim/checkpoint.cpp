#include "sim/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/atomic_io.hpp"
#include "util/error.hpp"

namespace fadesched::sim {
namespace {

/// C99 hex-float literal: exact double round-trip, locale-independent.
std::string HexDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

double ParseHexDouble(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == token.c_str()) {
    throw util::FatalError("checkpoint: malformed double '" + token + "'");
  }
  return value;
}

/// Pulls the next whitespace-separated token; throws on EOF.
std::string NextToken(std::istringstream& is, const char* what) {
  std::string token;
  if (!(is >> token)) {
    throw util::FatalError(std::string("checkpoint: truncated while reading ") +
                           what);
  }
  return token;
}

std::size_t NextSize(std::istringstream& is, const char* what) {
  const std::string token = NextToken(is, what);
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == token.c_str()) {
    throw util::FatalError(std::string("checkpoint: malformed count for ") +
                           what + ": '" + token + "'");
  }
  return static_cast<std::size_t>(value);
}

void ExpectToken(std::istringstream& is, const char* expected) {
  const std::string token = NextToken(is, expected);
  if (token != expected) {
    throw util::FatalError("checkpoint: expected '" + std::string(expected) +
                           "', found '" + token + "'");
  }
}

/// Series/metric names are embedded as whitespace-separated tokens, so a
/// name with whitespace would corrupt the framing — refuse loudly.
void CheckTokenName(const std::string& name, const char* what) {
  if (name.empty() ||
      name.find_first_of(" \t\r\n") != std::string::npos) {
    throw util::FatalError(std::string("checkpoint: ") + what + " name '" +
                           name + "' must be nonempty with no whitespace");
  }
}

void WriteStats(std::ostringstream& os, const mathx::RunningStats& stats) {
  os << "stat " << stats.Count() << " " << HexDouble(stats.RawMean()) << " "
     << HexDouble(stats.RawM2()) << " " << HexDouble(stats.Min()) << " "
     << HexDouble(stats.Max()) << "\n";
}

mathx::RunningStats ReadStats(std::istringstream& is) {
  ExpectToken(is, "stat");
  const std::size_t count = NextSize(is, "stat count");
  const double mean = ParseHexDouble(NextToken(is, "stat mean"));
  const double m2 = ParseHexDouble(NextToken(is, "stat m2"));
  const double min = ParseHexDouble(NextToken(is, "stat min"));
  const double max = ParseHexDouble(NextToken(is, "stat max"));
  return mathx::RunningStats::FromRawMoments(count, mean, m2, min, max);
}

}  // namespace

std::string MetricSweepCheckpoint::Serialize() const {
  std::ostringstream os;
  os << "fadesched-metric-checkpoint " << kFormatVersion << "\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, fingerprint);
  os << "fingerprint " << fp << "\n";
  os << "series " << series.size();
  for (const std::string& name : series) {
    CheckTokenName(name, "series");
    os << " " << name;
  }
  os << "\n";
  os << "metrics " << metrics.size();
  for (const std::string& name : metrics) {
    CheckTokenName(name, "metric");
    os << " " << name;
  }
  os << "\n";
  os << "points " << points.size() << "\n";
  const std::size_t grid = series.size() * metrics.size();
  for (std::size_t p = 0; p < points.size(); ++p) {
    const MetricPointCheckpoint& point = points[p];
    if (point.stats.size() != grid) {
      throw util::FatalError(
          "checkpoint: metric point stats size does not match the "
          "series x metric grid");
    }
    os << "point " << p << " " << HexDouble(point.x) << " seeds_done "
       << point.seeds_done << " failed " << point.failed_seeds
       << " timed_out " << point.timed_out_seeds << " complete "
       << (point.complete ? 1 : 0) << "\n";
    for (const mathx::RunningStats& stats : point.stats) {
      WriteStats(os, stats);
    }
  }
  os << "end\n";
  return os.str();
}

MetricSweepCheckpoint MetricSweepCheckpoint::Deserialize(
    const std::string& text) {
  std::istringstream is(text);
  ExpectToken(is, "fadesched-metric-checkpoint");
  const std::size_t version = NextSize(is, "format version");
  if (version != static_cast<std::size_t>(kFormatVersion)) {
    throw util::FatalError(
        "checkpoint: unsupported metric format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  MetricSweepCheckpoint checkpoint;
  ExpectToken(is, "fingerprint");
  {
    const std::string token = NextToken(is, "fingerprint");
    char* end = nullptr;
    checkpoint.fingerprint = std::strtoull(token.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') {
      throw util::FatalError("checkpoint: malformed fingerprint '" + token +
                             "'");
    }
  }
  ExpectToken(is, "series");
  checkpoint.series.resize(NextSize(is, "series count"));
  for (std::string& name : checkpoint.series) {
    name = NextToken(is, "series name");
  }
  ExpectToken(is, "metrics");
  checkpoint.metrics.resize(NextSize(is, "metric count"));
  for (std::string& name : checkpoint.metrics) {
    name = NextToken(is, "metric name");
  }
  ExpectToken(is, "points");
  const std::size_t num_points = NextSize(is, "point count");
  checkpoint.points.resize(num_points);
  const std::size_t grid =
      checkpoint.series.size() * checkpoint.metrics.size();
  for (std::size_t p = 0; p < num_points; ++p) {
    MetricPointCheckpoint& point = checkpoint.points[p];
    ExpectToken(is, "point");
    const std::size_t index = NextSize(is, "point index");
    if (index != p) {
      throw util::FatalError("checkpoint: point index out of order");
    }
    point.x = ParseHexDouble(NextToken(is, "point x"));
    ExpectToken(is, "seeds_done");
    point.seeds_done = NextSize(is, "seeds_done");
    ExpectToken(is, "failed");
    point.failed_seeds = NextSize(is, "failed seeds");
    ExpectToken(is, "timed_out");
    point.timed_out_seeds = NextSize(is, "timed out seeds");
    ExpectToken(is, "complete");
    point.complete = NextSize(is, "complete flag") != 0;
    point.stats.resize(grid);
    for (mathx::RunningStats& stats : point.stats) {
      stats = ReadStats(is);
    }
  }
  ExpectToken(is, "end");
  return checkpoint;
}

void MetricSweepCheckpoint::Save(const std::string& path) const {
  util::AtomicWriteFile(path, Serialize());
}

bool MetricSweepCheckpoint::Load(const std::string& path,
                                 std::uint64_t expected_fingerprint,
                                 MetricSweepCheckpoint& out) {
  if (!util::FileExists(path)) return false;
  out = Deserialize(util::ReadFileToString(path));
  if (out.fingerprint != expected_fingerprint) {
    throw util::FatalError(
        "checkpoint '" + path +
        "' was written under a different sweep configuration "
        "(fingerprint mismatch); delete it or rerun with the original "
        "flags to resume");
  }
  return true;
}

MetricSweepCheckpoint SweepCheckpoint::ToGrid() const {
  MetricSweepCheckpoint grid;
  grid.fingerprint = fingerprint;
  for (const SummaryStat& stat : kSummaryStats) {
    grid.metrics.emplace_back(stat.name);
  }
  // The algorithms are the first started point's; later points may not
  // have begun.
  for (const PointCheckpoint& point : points) {
    if (point.summaries.empty()) continue;
    for (const AlgoSummary& summary : point.summaries) {
      grid.series.push_back(summary.algorithm);
    }
    break;
  }
  const std::size_t grid_size = grid.series.size() * grid.metrics.size();
  for (const PointCheckpoint& point : points) {
    MetricPointCheckpoint& out = grid.points.emplace_back();
    out.x = point.x;
    out.seeds_done = point.seeds_done;
    out.failed_seeds = point.failed_seeds;
    out.timed_out_seeds = point.timed_out_seeds;
    out.complete = point.complete;
    if (point.summaries.empty()) {
      out.stats.resize(grid_size);
      continue;
    }
    for (std::size_t a = 0; a < point.summaries.size(); ++a) {
      if (point.summaries.size() != grid.series.size() ||
          point.summaries[a].algorithm != grid.series[a]) {
        throw util::FatalError("checkpoint: points disagree on the algorithms");
      }
      for (const SummaryStat& stat : kSummaryStats) {
        out.stats.push_back(point.summaries[a].*stat.field);
      }
    }
  }
  return grid;
}

void SweepCheckpoint::Save(const std::string& path) const {
  ToGrid().Save(path);
}

std::uint64_t FingerprintInit() { return 0xcbf29ce484222325ULL; }

std::uint64_t FingerprintMix64(std::uint64_t h, std::uint64_t value) {
  // FNV-1a over the 8 bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t FingerprintMixDouble(std::uint64_t h, double value) {
  // Bit pattern, not numeric value: distinguishes -0.0/0.0 and NaNs,
  // which is fine — configs are authored as literals.
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return FingerprintMix64(h, bits);
}

std::uint64_t FingerprintMixString(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // Length terminator so {"ab","c"} and {"a","bc"} differ.
  return FingerprintMix64(h, text.size());
}

std::uint64_t FingerprintSweep(const std::string& sweep_name,
                               const std::vector<double>& xs,
                               const ExperimentConfig& config,
                               const std::vector<ExperimentPoint>& points) {
  std::uint64_t h = FingerprintInit();
  h = FingerprintMixString(h, sweep_name);
  h = FingerprintMix64(h, xs.size());
  for (const double x : xs) h = FingerprintMixDouble(h, x);
  h = FingerprintMix64(h, config.algorithms.size());
  for (const std::string& algo : config.algorithms) {
    h = FingerprintMixString(h, algo);
  }
  h = FingerprintMix64(h, config.num_seeds);
  h = FingerprintMix64(h, config.base_seed);
  h = FingerprintMix64(h, config.trials);
  h = FingerprintMix64(h, static_cast<std::uint64_t>(config.fading.model));
  h = FingerprintMixDouble(h, config.fading.nakagami_m);
  h = FingerprintMixDouble(h, config.fading.shadowing_sigma_db);
  for (const ExperimentPoint& point : points) {
    h = FingerprintMix64(h, point.num_links);
    h = FingerprintMixDouble(h, point.channel.tx_power);
    h = FingerprintMixDouble(h, point.channel.alpha);
    h = FingerprintMixDouble(h, point.channel.gamma_th);
    h = FingerprintMixDouble(h, point.channel.epsilon);
    h = FingerprintMixDouble(h, point.channel.noise_power);
    h = FingerprintMixDouble(h, point.scenario.region_size);
    h = FingerprintMixDouble(h, point.scenario.min_link_length);
    h = FingerprintMixDouble(h, point.scenario.max_link_length);
    h = FingerprintMixDouble(h, point.scenario.rate);
  }
  return h;
}

}  // namespace fadesched::sim
