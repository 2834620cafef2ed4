#include "service/metrics.hpp"

#include <cmath>
#include <sstream>

#include "util/atomic_io.hpp"

namespace fadesched::service {

LatencyHistogram::LatencyHistogram() {
  for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
}

int LatencyHistogram::BinIndex(double seconds) {
  const double micros = seconds * 1e6;
  if (!(micros > 1.0)) return 0;  // includes NaN and sub-µs latencies
  const int bin = static_cast<int>(std::log2(micros) *
                                   static_cast<double>(kBinsPerOctave));
  return bin >= kNumBins ? kNumBins - 1 : bin;
}

double LatencyHistogram::BinMidSeconds(int bin) {
  // Geometric midpoint of [2^(bin/k), 2^((bin+1)/k)] µs.
  const double exponent =
      (static_cast<double>(bin) + 0.5) / static_cast<double>(kBinsPerOctave);
  return std::exp2(exponent) * 1e-6;
}

void LatencyHistogram::Record(double seconds) {
  bins_[static_cast<std::size_t>(BinIndex(seconds))].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& bin : bins_) total += bin.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::Percentile(double p) const {
  std::array<std::uint64_t, kNumBins> snapshot;
  std::uint64_t total = 0;
  for (int b = 0; b < kNumBins; ++b) {
    snapshot[static_cast<std::size_t>(b)] =
        bins_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    total += snapshot[static_cast<std::size_t>(b)];
  }
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the p-quantile sample, 1-based, ceil semantics.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kNumBins; ++b) {
    seen += snapshot[static_cast<std::size_t>(b)];
    if (seen >= rank) return BinMidSeconds(b);
  }
  return BinMidSeconds(kNumBins - 1);
}

std::string LatencyHistogram::ToJson() const {
  std::ostringstream out;
  out.precision(4);
  out << std::fixed;
  out << "{\"count\": " << Count() << ", \"p50_ms\": "
      << Percentile(0.50) * 1e3 << ", \"p95_ms\": " << Percentile(0.95) * 1e3
      << ", \"p99_ms\": " << Percentile(0.99) * 1e3 << "}";
  return out.str();
}

std::string ServiceMetrics::ToJson() const {
  const auto get = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  std::ostringstream out;
  out << "{\n";
  out << "  \"submitted\": " << get(submitted) << ",\n";
  out << "  \"admitted\": " << get(admitted) << ",\n";
  out << "  \"shed\": " << get(shed) << ",\n";
  out << "  \"shed_overload\": " << get(shed_overload) << ",\n";
  out << "  \"shed_cold\": " << get(shed_cold) << ",\n";
  out << "  \"rejected_draining\": " << get(rejected_draining) << ",\n";
  out << "  \"timed_out\": " << get(timed_out) << ",\n";
  out << "  \"completed\": " << get(completed) << ",\n";
  out << "  \"failed\": " << get(failed) << ",\n";
  out << "  \"cache\": {\n";
  out << "    \"response_hits\": " << get(response_hits) << ",\n";
  out << "    \"raw_hits\": " << get(raw_hits) << ",\n";
  out << "    \"raw_check_passes\": " << get(raw_check_passes) << ",\n";
  out << "    \"response_misses\": " << get(response_misses) << ",\n";
  out << "    \"scenario_hits\": " << get(scenario_hits) << ",\n";
  out << "    \"scenario_misses\": " << get(scenario_misses) << ",\n";
  out << "    \"evictions\": " << get(cache_evictions) << ",\n";
  out << "    \"collisions\": " << get(cache_collisions) << "\n";
  out << "  },\n";
  out << "  \"guards\": {\n";
  out << "    \"protocol_errors\": " << get(protocol_errors) << ",\n";
  out << "    \"oversized_frames\": " << get(oversized_frames) << ",\n";
  out << "    \"evicted_slow\": " << get(evicted_slow) << ",\n";
  out << "    \"checksum_failures\": " << get(checksum_failures) << "\n";
  out << "  },\n";
  out << "  \"chaos\": {\n";
  out << "    \"injected\": " << get(chaos_injected) << ",\n";
  out << "    \"recovered\": " << get(chaos_recovered) << "\n";
  out << "  },\n";
  out << "  \"overload\": {\n";
  out << "    \"queue_depth\": " << get(queue_depth) << ",\n";
  out << "    \"queue_delay_ewma_us\": " << get(queue_delay_ewma_us) << ",\n";
  out << "    \"worker_restarts\": " << get(worker_restarts) << "\n";
  out << "  },\n";
  out << "  \"queue_latency\": " << queue_latency.ToJson() << ",\n";
  out << "  \"service_latency\": " << service_latency.ToJson() << ",\n";
  out << "  \"total_latency\": " << total_latency.ToJson() << ",\n";
  out << "  \"warm_total_latency\": " << warm_total_latency.ToJson() << ",\n";
  out << "  \"cold_total_latency\": " << cold_total_latency.ToJson() << "\n";
  out << "}\n";
  return out.str();
}

void ServiceMetrics::DumpJson(const std::string& path) const {
  util::AtomicWriteFile(path, ToJson());
}

}  // namespace fadesched::service
