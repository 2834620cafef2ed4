// Service observability: lock-free counters + latency histograms, dumped
// as JSON.
//
// Everything here is written on the request hot path, so the counters are
// relaxed atomics and the histogram records into log-spaced atomic bins
// (3 bins per octave from 1 µs, ~26% resolution over ~16 orders of
// magnitude). Percentiles are derived from the bins at read time — an
// approximation that is deterministic for a fixed set of samples, which
// is what the smoke tests pin.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace fadesched::service {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one latency (thread-safe, wait-free).
  void Record(double seconds);

  [[nodiscard]] std::uint64_t Count() const;

  /// Approximate percentile (p in [0, 1]) in seconds: the geometric
  /// midpoint of the bin holding the p-quantile sample. 0 when empty.
  [[nodiscard]] double Percentile(double p) const;

  /// {"count": N, "p50_ms": ..., "p95_ms": ..., "p99_ms": ...}
  [[nodiscard]] std::string ToJson() const;

 private:
  // Bin 0 holds everything below 1 µs; the last bin everything above the
  // covered range. 3 bins/octave × 96 bins spans 1 µs … ~4.3e3 s.
  static constexpr int kBinsPerOctave = 3;
  static constexpr int kNumBins = 96;
  static int BinIndex(double seconds);
  static double BinMidSeconds(int bin);

  std::array<std::atomic<std::uint64_t>, kNumBins> bins_;
};

/// One counter per admission/execution/cache outcome. Monotonic; read
/// with relaxed loads (snapshots need not be mutually consistent).
struct ServiceMetrics {
  // Admission control. submitted counts every Submit call, so at
  // quiescence: submitted == admitted + shed + shed_overload +
  // rejected_draining, and admitted == completed + failed + timed_out.
  std::atomic<std::uint64_t> submitted{0};  ///< every Submit call
  std::atomic<std::uint64_t> admitted{0};   ///< accepted into the queue
  std::atomic<std::uint64_t> shed{0};       ///< rejected, queue full
  std::atomic<std::uint64_t> shed_overload{0};  ///< rejected by controller
  std::atomic<std::uint64_t> shed_cold{0};  ///< sheds that were cold-class
  std::atomic<std::uint64_t> rejected_draining{0};  ///< rejected, draining
  std::atomic<std::uint64_t> timed_out{0};  ///< deadline passed in queue

  // Execution.
  std::atomic<std::uint64_t> completed{0};  ///< handler returned ok
  std::atomic<std::uint64_t> failed{0};     ///< handler threw / error status

  // Cache.
  std::atomic<std::uint64_t> response_hits{0};
  /// Frames answered without a parse: payload-level hits served from the
  /// response level (also in response_hits) or queued with a resident
  /// scenario (also in scenario_hits).
  std::atomic<std::uint64_t> raw_hits{0};
  /// Full check= FNV passes run on payload matches (the rest repeated
  /// the header state of the entry's verified claim): the byte-serial
  /// work warm traffic still pays.
  std::atomic<std::uint64_t> raw_check_passes{0};
  std::atomic<std::uint64_t> response_misses{0};
  std::atomic<std::uint64_t> scenario_hits{0};
  std::atomic<std::uint64_t> scenario_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> cache_collisions{0};

  // Connection guards (server-side chaos defenses).
  std::atomic<std::uint64_t> protocol_errors{0};   ///< malformed frames → ERR
  std::atomic<std::uint64_t> oversized_frames{0};  ///< max-frame guard fired
  std::atomic<std::uint64_t> evicted_slow{0};      ///< read-deadline evictions
  std::atomic<std::uint64_t> checksum_failures{0};  ///< check=/sum= mismatches

  // Chaos layer (client-side; populated by the fault-injecting transport
  // and the retrying client when handed this instance).
  std::atomic<std::uint64_t> chaos_injected{0};   ///< faults injected
  std::atomic<std::uint64_t> chaos_recovered{0};  ///< calls ok after ≥1 retry

  /// Global fork ordinal inherited from the supervisor at fork time (how
  /// many spawns preceded this shard worker); 0 for in-process `serve`.
  std::atomic<std::uint64_t> worker_restarts{0};

  // Gauges (instantaneous, not monotone — excluded from the
  // snapshot-consistency monotonicity test).
  std::atomic<std::uint64_t> queue_depth{0};
  std::atomic<std::uint64_t> queue_delay_ewma_us{0};

  LatencyHistogram queue_latency;    ///< enqueue → worker pickup
  LatencyHistogram service_latency;  ///< handler execution
  LatencyHistogram total_latency;    ///< enqueue → response ready
  // total_latency split by admission class: the overload controller's
  // whole point is that these two diverge under pressure (cold absorbs
  // the queueing, warm stays near its uncontended value), and that claim
  // is only checkable if the service itself keeps the split.
  LatencyHistogram warm_total_latency;  ///< enqueue → ready, warm class
  LatencyHistogram cold_total_latency;  ///< enqueue → ready, cold class

  ServiceMetrics() = default;
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  /// Full JSON document (counters + the three histograms).
  [[nodiscard]] std::string ToJson() const;

  /// Atomic (temp → fsync → rename) JSON dump; throws HarnessError on I/O
  /// failure.
  void DumpJson(const std::string& path) const;
};

}  // namespace fadesched::service
