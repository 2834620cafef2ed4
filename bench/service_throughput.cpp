// Service-level benchmark: request-frame decode time against the check=
// FNV floor, cold vs warm request latency through the scenario/response
// cache, byte-determinism under a multi-worker batcher, and
// admission-control shedding under overload. Emits BENCH_service.json.
//
// With --check the exit code gates the serving claims:
//   * a decoded frame's scenario is bit-identical to the one formatted,
//     and every timed raw hit is served with no full check= pass (decode
//     timings are reported, never gated),
//   * warm (cached) serving ≥ 5× faster than cold at N = 2000 links,
//   * zero byte-level response divergence across ≥ 4 worker threads,
//   * a saturated queue sheds (status=shed, kind=transient, exit code 1),
//   * the 8-shard tier's median calibrated capacity is > 1.3× the
//     1-shard tier's, and affinity routing beats round-robin on warm hits.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "micro_common.hpp"
#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "service/client.hpp"
#include "service/loadgen.hpp"
#include "service/protocol.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/corpus.hpp"
#include "util/atomic_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace fadesched;

testing::ScenarioCase MakeCase(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  net::UniformScenarioParams scenario;
  // Hold density constant across sizes so interference stays comparable.
  scenario.region_size = 500.0 * std::sqrt(static_cast<double>(n) / 300.0);
  testing::ScenarioCase out;
  out.links = net::MakeUniformScenario(n, scenario, gen);
  out.params.Validate();
  return out;
}

service::SchedulingRequest MakeRequest(const testing::ScenarioCase& scenario,
                                       const std::string& scheduler,
                                       const std::string& id) {
  service::SchedulingRequest request;
  request.scenario = scenario;
  request.scheduler = scheduler;
  request.id = id;
  return request;
}

// One size of the decode block: ParseRequestFrame on a whole frame (END
// stripped, as the front-ends hand it over) against Fnv1a64 alone over
// the same bytes, the check= floor a parse cannot go below, and a raw-level
// hit (SubmitFrame repeating a frame whose payload is resident and whose
// check= the entry has verified), which skips both.
struct DecodePoint {
  std::size_t links = 0;
  std::size_t frame_bytes = 0;
  bench::Spread parse_us;
  bench::Spread fnv_us;
  bench::Spread raw_hit_us;
  bool bit_identical = false;
  /// Every timed raw hit was served OK, as a raw hit, with no full pass.
  bool raw_hit_verified = false;
};

// Raw hits timed per rep: one call is a few µs, below a single
// Stopwatch sample's useful resolution.
constexpr int kRawHitsPerRep = 64;

// SubmitFrame of one frame whose payload is resident, repeated as
// perfbench and loadgen repeat theirs: after one warm-up call, whose full
// pass the entry remembers, every timed call decides check= by a compare.
bench::Spread MeasureRawHit(const service::SchedulingRequest& request,
                            const std::string& frame, int reps,
                            bool* verified) {
  service::SchedulingService svc;
  bool ok = true;
  for (const char* id : {"prime-1", "prime-2"}) {  // a miss, then the attach
    service::SchedulingRequest prime = request;
    prime.id = id;
    std::string primer = service::FormatRequestFrame(prime);
    primer.resize(primer.size() - 4);
    ok = svc.SubmitFrame(primer).get().Ok() && ok;
  }
  ok = svc.SubmitFrame(frame).get().Ok() && ok;
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    for (int i = 0; i < kRawHitsPerRep; ++i) {
      ok = svc.SubmitFrame(frame).get().Ok() && ok;
    }
    samples.push_back(timer.Seconds() * 1e6 / kRawHitsPerRep);
  }
  const service::ServiceMetrics& m = svc.Metrics();
  *verified = ok && m.raw_check_passes.load() == 1 &&
              m.raw_hits.load() ==
                  1 + static_cast<std::uint64_t>(reps) * kRawHitsPerRep;
  return bench::SpreadOf(std::move(samples));
}

DecodePoint MeasureDecode(std::size_t n, int reps) {
  DecodePoint point;
  point.links = n;
  const service::SchedulingRequest request =
      MakeRequest(MakeCase(n, 20261018), "rle", "decode");
  std::string frame = service::FormatRequestFrame(request);
  frame.resize(frame.size() - 4);  // the END line
  point.frame_bytes = frame.size();
  // The canonical blob holds every double raw, so equal blobs mean a
  // bit-identical scenario.
  point.bit_identical =
      service::FingerprintRequest(service::ParseRequestFrame(frame))
          .canonical_scenario ==
      service::FingerprintRequest(request).canonical_scenario;
  volatile std::uint64_t sink = 0;
  point.parse_us = bench::Measure(reps, 1e6, [&] {
    sink = service::ParseRequestFrame(frame).scenario.links.Size();
  });
  point.fnv_us =
      bench::Measure(reps, 1e6, [&] { sink = service::Fnv1a64(frame); });
  (void)sink;
  point.raw_hit_us =
      MeasureRawHit(request, frame, reps, &point.raw_hit_verified);
  return point;
}

// Same deterministic warm/cold interleaving as the loadgen: request i is
// warm iff the Bresenham accumulator crosses an integer at i.
bool IsWarmIndex(std::size_t i, double hot_fraction) {
  return std::floor(static_cast<double>(i + 1) * hot_fraction) >
         std::floor(static_cast<double>(i) * hot_fraction);
}

// One point of the open-loop throughput/latency curve.
struct LoadPoint {
  double multiplier = 0.0;
  double offered_rps = 0.0;
  /// Submissions per second the pacing thread actually achieved; when
  /// this falls below offered_rps the arrival process, not the service,
  /// was the bottleneck, and the point understates the intended load.
  double achieved_rps = 0.0;
  std::size_t requests = 0;
  std::size_t warm_ok = 0, cold_ok = 0;
  std::size_t warm_shed = 0, cold_shed = 0;
  std::size_t timed_out = 0;
  /// Service-side percentiles (enqueue → response ready, per-class
  /// histograms in ServiceMetrics): the latency the serving tier is
  /// answerable for, free of the bench's own client-thread scheduling
  /// noise — which on a small CI box dwarfs the service's contribution.
  double warm_p50_ms = 0.0, warm_p99_ms = 0.0, cold_p99_ms = 0.0;
  /// Client-observed p99s (submit → future consumed) for comparison.
  double observed_warm_p99_ms = 0.0, observed_cold_p99_ms = 0.0;
};

// One row of the shard-scaling series. capacity_rps and cpu_us_per_req
// spread over the closed-loop calibration runs.
struct ShardPoint {
  std::size_t shards = 0;
  bench::Spread capacity_rps;
  bench::Spread cpu_us_per_req;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::size_t requests = 0;
  std::size_t ok = 0, shed = 0;
  double warm_p50_ms = 0.0, warm_p99_ms = 0.0;
  double warm_corrected_p99_ms = 0.0;
  double cold_p99_ms = 0.0, cold_corrected_p99_ms = 0.0;
  double warm_hit_rate = 0.0;
};

// Response-cache hit rate over the *measured* window only: the delta of
// the tier-aggregate counters, so the fill pass and the calibration burst
// don't dilute the number.
double HitRateDelta(const service::StatsSnapshot& before,
                    const service::StatsSnapshot& after) {
  service::StatsSnapshot delta;
  delta.response_hits = after.response_hits - before.response_hits;
  delta.response_misses = after.response_misses - before.response_misses;
  return delta.WarmHitRate();
}

// CPU seconds the shard tier has used: the router's event-loop thread
// plus every live shard worker process.
double TierCpuSeconds(const service::shard::ShardServer& server,
                      std::size_t shards, std::thread& router) {
  const auto seconds = [](clockid_t clock) {
    timespec cpu{};
    if (::clock_gettime(clock, &cpu) != 0) return 0.0;
    return static_cast<double>(cpu.tv_sec) +
           1e-9 * static_cast<double>(cpu.tv_nsec);
  };
  clockid_t clock{};
  double total = 0.0;
  if (::pthread_getcpuclockid(router.native_handle(), &clock) == 0) {
    total += seconds(clock);
  }
  for (std::size_t slot = 0; slot < shards; ++slot) {
    const pid_t pid = server.WorkerPid(slot);
    if (pid > 0 && ::clock_getcpuclockid(pid, &clock) == 0) {
      total += seconds(clock);
    }
  }
  return total;
}

std::string ShardSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_bench_shard_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("service_throughput",
                      "cold/warm cache latency, multi-worker determinism, "
                      "and overload shedding of the scheduling service");
  auto& n_links = cli.AddInt("links", 2000, "instance size for cold vs warm");
  auto& scheduler = cli.AddString("scheduler", "rle", "scheduler under test");
  auto& warm_reps = cli.AddInt("warm-reps", 20, "warm-path repetitions");
  auto& det_workers = cli.AddInt("det-workers", 4,
                                 "batcher workers for the determinism run");
  auto& det_requests = cli.AddInt("det-requests", 200,
                                  "requests in the determinism run");
  auto& load_links = cli.AddInt("load-links", 600,
                                "instance size for the open-loop curve");
  auto& load_requests = cli.AddInt("load-requests", 400,
                                   "request floor per open-loop load point");
  auto& load_seconds = cli.AddDouble(
      "load-seconds", 1.2,
      "target duration per load point; must comfortably exceed the "
      "controller's interval or shedding can never engage");
  auto& load_workers = cli.AddInt("load-workers", 2,
                                  "batcher workers for the open-loop curve");
  // The default keeps the post-shed residual (warm work that cannot be
  // shed under the cold-only policy) well below capacity even at 2×
  // offered load — a controller can only defend the warm p99 when the
  // unsheddable work itself still fits the machine. On a single-core CI
  // box that means warm requests must be a modest share of the offered
  // *work*, hence 0.5 rather than a production-like 0.9.
  auto& hot_fraction = cli.AddDouble(
      "hot-fraction", 0.5, "warm share of the open-loop request mix");
  auto& shard_links = cli.AddInt("shard-links", 600,
                                 "instance size for the shard-scaling series");
  auto& shard_pool = cli.AddInt("shard-pool", 30,
                                "warm working set for the shard series; "
                                "sized to overflow ONE shard's cache");
  auto& shard_cache_kb = cli.AddInt(
      "shard-cache-kb", 1536,
      "per-shard scenario/response cache budget — the fixed resource that "
      "sharding multiplies");
  auto& shard_requests = cli.AddInt(
      "shard-requests", 600, "measured requests per shard-scaling point");
  auto& out_path = cli.AddString("out", "BENCH_service.json", "JSON output");
  auto& check = cli.AddBool(
      "check", false, "exit 1 unless decoded frames are bit-identical, "
      "repeated raw hits skip the check= pass, speedup >= 5, zero "
      "divergence, the overloaded queue shed, sharding scales capacity, and "
      "affinity beats round-robin on warm hits");
  if (!cli.Parse(argc, argv)) return cli.UsageExitCode();

  // --- 0. Decode against the FNV floor, on a quiet process ----------------
  constexpr int kDecodeReps = 21;
  std::vector<DecodePoint> decode;
  for (const std::size_t n : {600u, 2000u}) {
    decode.push_back(MeasureDecode(n, kDecodeReps));
  }
  const bool decode_identical =
      std::all_of(decode.begin(), decode.end(),
                  [](const DecodePoint& point) {
                    return point.bit_identical && point.raw_hit_verified;
                  });

  // --- 1. Cold vs warm at N = n_links -------------------------------------
  const testing::ScenarioCase big =
      MakeCase(static_cast<std::size_t>(n_links), 20260805);
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::string cold_line, warm_line;
  {
    service::SchedulingService svc;  // fresh cache: first request is cold
    const service::SchedulingRequest request =
        MakeRequest(big, scheduler, "cold");
    util::Stopwatch cold_timer;
    service::SchedulingResponse response = svc.HandleNow(request);
    cold_ms = cold_timer.Seconds() * 1e3;
    if (!response.Ok()) {
      std::fprintf(stderr, "cold request failed: %s\n",
                   response.message.c_str());
      return util::kExitRuntime;
    }
    cold_line = service::FormatResponseLine(response);

    double best = cold_ms;
    for (long long r = 0; r < warm_reps; ++r) {
      util::Stopwatch warm_timer;
      response = svc.HandleNow(request);
      const double ms = warm_timer.Seconds() * 1e3;
      if (r == 0 || ms < best) best = ms;
      warm_line = service::FormatResponseLine(response);
    }
    warm_ms = best;
  }
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const bool deterministic_pair = cold_line == warm_line;

  // --- 2. Byte-determinism under a multi-worker batcher -------------------
  std::size_t det_mismatches = 0;
  {
    service::ServiceOptions options;
    options.batcher.num_workers = static_cast<std::size_t>(det_workers);
    // This section measures byte-determinism, not admission: every request
    // in the burst is a first-touch cold (responses are not cached at
    // submit time), so the queue must hold all of them. The cold-lane
    // bulkhead caps colds at half the shared bound, hence capacity = 2×
    // the burst size, and the delay controller is off (target 0).
    options.batcher.queue_capacity = 2 * static_cast<std::size_t>(det_requests);
    options.batcher.overload.queue_delay_target_ms = 0.0;
    service::SchedulingService svc(options);
    constexpr std::size_t kPool = 8;
    std::vector<testing::ScenarioCase> pool;
    for (std::size_t i = 0; i < kPool; ++i) {
      pool.push_back(MakeCase(80, 1000 + i));
    }
    std::vector<std::future<service::SchedulingResponse>> futures;
    futures.reserve(static_cast<std::size_t>(det_requests));
    for (long long i = 0; i < det_requests; ++i) {
      const std::size_t p = static_cast<std::size_t>(i) % kPool;
      futures.push_back(svc.Submit(
          MakeRequest(pool[p], scheduler, "r" + std::to_string(p))));
    }
    std::vector<std::string> first(kPool);
    for (long long i = 0; i < det_requests; ++i) {
      const std::size_t p = static_cast<std::size_t>(i) % kPool;
      const std::string line = service::FormatResponseLine(
          futures[static_cast<std::size_t>(i)].get());
      if (first[p].empty()) {
        first[p] = line;
      } else if (first[p] != line) {
        ++det_mismatches;
      }
    }
    svc.Drain();
  }

  // --- 3. Overload: a saturated queue must shed ---------------------------
  std::size_t shed_count = 0;
  int shed_exit_code = 0;
  std::string shed_kind;
  {
    service::ServiceOptions options;
    options.batcher.num_workers = 1;
    options.batcher.queue_capacity = 8;
    service::SchedulingService svc(options);
    // 64 distinct scenarios, built before the burst: with one scenario
    // repeated, the first build finished while the burst was still being
    // submitted and 63 of 64 came back as response-cache hits, so nothing
    // was ever queued long enough to shed.
    std::vector<service::SchedulingRequest> burst;
    for (std::uint64_t i = 0; i < 64; ++i) {
      burst.push_back(MakeRequest(MakeCase(300, 7 + i), scheduler,
                                  "o" + std::to_string(i)));
    }
    std::vector<std::future<service::SchedulingResponse>> futures;
    for (service::SchedulingRequest& request : burst) {
      futures.push_back(svc.Submit(std::move(request)));
    }
    for (auto& future : futures) {
      const service::SchedulingResponse response = future.get();
      if (response.status == service::ResponseStatus::kShed) {
        ++shed_count;
        shed_exit_code = response.ExitCode();
        shed_kind = util::ErrorKindName(response.error_kind);
      }
    }
    svc.Drain();
  }

  // --- 4. Open-loop throughput vs client-observed p99 ---------------------
  // Offered load is paced by the wall clock (open loop: a slow service
  // does not slow the arrival process), at multiples of an empirically
  // calibrated capacity. The controller's job under 2× overload: shed
  // cold requests, keep warm p99 near the uncontended value. Each series
  // entry reports achieved_rps next to offered_rps — on a small CI box
  // the pacing thread timeshares with the workers, and the delta is the
  // honest record of how much of the intended load actually arrived.
  // Timing here is recorded, never gated — CI boxes are too noisy for
  // latency assertions.
  const std::size_t kLoadLinks = static_cast<std::size_t>(load_links);
  const std::size_t kLoadWorkers = static_cast<std::size_t>(load_workers);
  const std::size_t kLoadRequests = static_cast<std::size_t>(load_requests);
  double cold_small_ms = 0.0;
  double warm_small_ms = 0.0;
  {
    service::SchedulingService svc;
    for (int i = 0; i < 3; ++i) {
      const testing::ScenarioCase scenario =
          MakeCase(kLoadLinks, 5000 + static_cast<std::uint64_t>(i));
      util::Stopwatch timer;
      svc.HandleNow(MakeRequest(scenario, scheduler, "m" + std::to_string(i)));
      cold_small_ms += timer.Seconds() * 1e3 / 3.0;
    }
    const service::SchedulingRequest warm_probe =
        MakeRequest(MakeCase(kLoadLinks, 5000), scheduler, "m0");
    double best = cold_small_ms;
    for (int r = 0; r < 10; ++r) {
      util::Stopwatch timer;
      svc.HandleNow(warm_probe);
      best = std::min(best, timer.Seconds() * 1e3);
    }
    warm_small_ms = best;
  }
  // Capacity is calibrated empirically — a closed-loop burst of the same
  // warm/cold mix through the same Submit path, controller off and the
  // queue wide open so nothing sheds. This folds in every real cost the
  // analytic workers/service-time figure misses: fingerprinting on the
  // submit thread, scenario generation for colds, and (on small CI boxes)
  // the arrival and service paths timesharing the same cores.
  double capacity_rps = 0.0;
  {
    service::ServiceOptions options;
    options.batcher.num_workers = kLoadWorkers;
    options.batcher.queue_capacity = 1 << 14;
    options.batcher.overload.queue_delay_target_ms = 0.0;
    service::SchedulingService svc(options);
    constexpr std::size_t kPool = 8;
    std::vector<service::SchedulingRequest> warm_pool;
    for (std::size_t p = 0; p < kPool; ++p) {
      warm_pool.push_back(MakeRequest(MakeCase(kLoadLinks, 8000 + p),
                                      scheduler, "w" + std::to_string(p)));
      svc.HandleNow(warm_pool.back());
    }
    constexpr std::size_t kCalibration = 1000;
    std::vector<std::future<service::SchedulingResponse>> futures;
    futures.reserve(kCalibration);
    util::Stopwatch timer;
    for (std::size_t i = 0; i < kCalibration; ++i) {
      futures.push_back(svc.Submit(
          IsWarmIndex(i, hot_fraction)
              ? warm_pool[i % kPool]
              : MakeRequest(MakeCase(kLoadLinks, 7000 + i), scheduler,
                            "k" + std::to_string(i))));
    }
    for (auto& future : futures) future.get();
    capacity_rps = static_cast<double>(kCalibration) / timer.Seconds();
    svc.Drain();
  }

  std::vector<LoadPoint> curve;
  for (const double multiplier : {0.5, 1.0, 2.0}) {
    LoadPoint point;
    point.multiplier = multiplier;
    point.offered_rps = multiplier * capacity_rps;
    // Each point must run long enough for sustained queue delay to
    // outlast the controller's interval, so the request count scales
    // with the offered rate instead of being fixed.
    point.requests = std::max(
        kLoadRequests,
        static_cast<std::size_t>(point.offered_rps * load_seconds));

    service::ServiceOptions options;
    options.batcher.num_workers = kLoadWorkers;
    // Tighter than the production defaults (5 ms target / 100 ms
    // interval): at these request rates an interval of queued work is
    // what the warm tail rides out, so a fast-reacting controller is
    // what keeps the p99 curve flat.
    options.batcher.overload.queue_delay_target_ms = 1.0;
    options.batcher.overload.interval_ms = 10.0;
    service::SchedulingService svc(options);

    // Pre-warmed pool: these are the cache hits of the steady state.
    constexpr std::size_t kPool = 8;
    std::vector<service::SchedulingRequest> warm_pool;
    for (std::size_t p = 0; p < kPool; ++p) {
      warm_pool.push_back(MakeRequest(MakeCase(kLoadLinks, 8000 + p),
                                      scheduler, "w" + std::to_string(p)));
      svc.HandleNow(warm_pool.back());
    }
    using SteadyClock = std::chrono::steady_clock;
    struct Pending {
      std::future<service::SchedulingResponse> future;
      SteadyClock::time_point submitted;
    };
    // One collector per class: within a class the batcher is FIFO, so
    // in-order get() observes completion times faithfully. A single
    // shared collector would charge a lagging cold build's wait to every
    // warm completion queued behind it in the inbox — exactly the skew
    // the warm-priority queue exists to remove.
    struct Lane {
      std::deque<Pending> inbox;
      std::mutex mutex;
      std::condition_variable ready;
      bool done = false;
      std::size_t ok = 0, shed = 0, timed_out = 0;
      service::LatencyHistogram hist;
      std::thread collector;

      void Start() {
        collector = std::thread([this] {
          for (;;) {
            Pending pending;
            {
              std::unique_lock<std::mutex> lock(mutex);
              ready.wait(lock, [this] { return !inbox.empty() || done; });
              if (inbox.empty()) return;
              pending = std::move(inbox.front());
              inbox.pop_front();
            }
            const service::SchedulingResponse response =
                pending.future.get();
            if (response.Ok()) {
              hist.Record(std::chrono::duration<double>(SteadyClock::now() -
                                                        pending.submitted)
                              .count());
              ok += 1;
            } else if (response.status == service::ResponseStatus::kShed) {
              shed += 1;
            } else if (response.status ==
                       service::ResponseStatus::kTimeout) {
              timed_out += 1;
            }
          }
        });
      }
      void Push(Pending pending) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          inbox.push_back(std::move(pending));
        }
        ready.notify_one();
      }
      void Finish() {
        {
          std::lock_guard<std::mutex> lock(mutex);
          done = true;
        }
        ready.notify_all();
        collector.join();
      }
    };
    Lane warm_lane, cold_lane;
    warm_lane.Start();
    cold_lane.Start();

    const auto interarrival =
        std::chrono::duration_cast<SteadyClock::duration>(
            std::chrono::duration<double>(1.0 / point.offered_rps));
    const SteadyClock::time_point start = SteadyClock::now();
    std::size_t cold_next = 0;
    for (std::size_t i = 0; i < point.requests; ++i) {
      std::this_thread::sleep_until(
          start + interarrival * static_cast<std::int64_t>(i));
      const bool warm = IsWarmIndex(i, hot_fraction);
      // Cold scenarios are unique (guaranteed cache misses), generated
      // lazily here so a long run never holds thousands of instances in
      // memory at once. The clock for this request starts *after*
      // generation — scenario construction is the client's cost, not the
      // service's.
      service::SchedulingRequest request =
          warm ? warm_pool[i % kPool]
               : MakeRequest(MakeCase(kLoadLinks, 9000 + i), scheduler,
                             "c" + std::to_string(cold_next++));
      Pending pending;
      pending.submitted = SteadyClock::now();
      pending.future = svc.Submit(std::move(request));
      (warm ? warm_lane : cold_lane).Push(std::move(pending));
    }
    point.achieved_rps =
        static_cast<double>(point.requests) /
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    warm_lane.Finish();
    cold_lane.Finish();
    svc.Drain();

    point.warm_ok = warm_lane.ok;
    point.cold_ok = cold_lane.ok;
    point.warm_shed = warm_lane.shed;
    point.cold_shed = cold_lane.shed;
    point.timed_out = warm_lane.timed_out + cold_lane.timed_out;
    point.warm_p50_ms = svc.Metrics().warm_total_latency.Percentile(0.50) * 1e3;
    point.warm_p99_ms = svc.Metrics().warm_total_latency.Percentile(0.99) * 1e3;
    point.cold_p99_ms = svc.Metrics().cold_total_latency.Percentile(0.99) * 1e3;
    point.observed_warm_p99_ms = warm_lane.hist.Percentile(0.99) * 1e3;
    point.observed_cold_p99_ms = cold_lane.hist.Percentile(0.99) * 1e3;
    curve.push_back(point);
  }

  // --- 5. Shard scaling: cache capacity is the multiplied resource --------
  // On a single-core box sharding cannot add CPU, so the scaling story is
  // the one the consistent-hash router actually tells: each shard worker
  // owns a fixed-size cache, and fingerprint affinity makes the tier's
  // effective cache capacity N× one shard's. The warm pool is sized to
  // overflow one shard's cache (LRU + cyclic replay → every "warm" request
  // is really a rebuild) but to fit comfortably once split 8 ways — so
  // aggregate throughput at a fixed p99 budget rises with the shard count
  // even though the core count does not.
  //
  // The defaults set that regime up on the tables backend. An N=600 miss
  // (parse, engine tables, schedule) costs several times a raw-level hit,
  // so a thrashing shard is miss-bound rather than router-bound, and a
  // pool entry (scenario + response + raw payload, ~290 B per link) is
  // ~170 KB, so a 1536 KB shard holds about nine: fewer than the pool of
  // 30 or the 25 a round-robin shard sees, more than an affinity shard's
  // share of either.
  const std::size_t kShardLinks = static_cast<std::size_t>(shard_links);
  const std::size_t kShardPool = static_cast<std::size_t>(shard_pool);
  const std::size_t kShardRequests = static_cast<std::size_t>(shard_requests);
  const std::size_t kShardCacheBytes =
      static_cast<std::size_t>(shard_cache_kb) << 10;
  constexpr int kCalibrationRuns = 5;

  const auto run_shard_point = [&](std::size_t shards,
                                   service::shard::RoutingMode routing,
                                   std::size_t pool, std::size_t requests,
                                   double hot, const char* tag) {
    service::shard::ShardServerOptions options;
    options.server.unix_socket_path = ShardSocketPath(tag);
    options.server.service.batcher.num_workers = 1;
    options.server.service.cache.capacity_bytes = kShardCacheBytes;
    options.num_shards = shards;
    options.routing = routing;
    options.completion_threads_per_shard = 1;
    options.supervisor.drain_grace_seconds = 10.0;
    service::shard::ShardServer server(options);
    server.Start();
    std::thread serving([&server] { server.Serve(); });

    ShardPoint point;
    point.shards = shards;
    try {
      service::LoadgenOptions load;
      load.unix_socket_path = options.server.unix_socket_path;
      load.connections = 4;
      load.pool_size = pool;
      load.links = kShardLinks;
      load.seed = 42;
      load.scheduler = scheduler;
      load.hot_fraction = hot;

      // Fill pass: the calibration's own request sequence once, colds
      // included, so every timed pass starts from the steady state this
      // shard count can actually hold.
      load.num_requests = requests;
      service::RunLoadgen(load);

      // Closed-loop calibration, repeated: the tier's capacity for this
      // mix. One run is too noisy to compare shard counts on (a 1-shard
      // tier read anywhere from ~740 to ~4200 rps over identical runs).
      std::vector<double> rps, cpu_us;
      for (int run = 0; run < kCalibrationRuns; ++run) {
        const double cpu_before = TierCpuSeconds(server, shards, serving);
        const service::LoadgenReport calibration = service::RunLoadgen(load);
        const double cpu = TierCpuSeconds(server, shards, serving) - cpu_before;
        rps.push_back(calibration.throughput_rps);
        cpu_us.push_back(1e6 * cpu / static_cast<double>(calibration.sent));
      }
      point.capacity_rps = bench::SpreadOf(rps);
      point.cpu_us_per_req = bench::SpreadOf(cpu_us);

      service::Client stats_client;
      stats_client.ConnectUnix(options.server.unix_socket_path);
      const service::StatsSnapshot before = stats_client.Stats();

      // Open loop at 0.8× capacity: below saturation, so the p99s are
      // queue-free and comparable across shard counts at a fixed budget.
      load.rate_per_sec = 0.8 * point.capacity_rps.median;
      const service::LoadgenReport measured = service::RunLoadgen(load);
      const service::StatsSnapshot after = stats_client.Stats();
      stats_client.Close();

      point.offered_rps = load.rate_per_sec;
      point.achieved_rps = measured.throughput_rps;
      point.requests = measured.sent;
      point.ok = measured.ok;
      point.shed = measured.shed;
      point.warm_p50_ms = measured.warm_p50_ms;
      point.warm_p99_ms = measured.warm_p99_ms;
      point.warm_corrected_p99_ms = measured.warm_corrected_p99_ms;
      point.cold_p99_ms = measured.cold_p99_ms;
      point.cold_corrected_p99_ms = measured.cold_corrected_p99_ms;
      point.warm_hit_rate = HitRateDelta(before, after);
    } catch (...) {
      server.Stop();
      serving.join();
      throw;
    }
    server.Stop();
    serving.join();
    return point;
  };

  // 90% pool replays + 10% unique colds: the colds populate the cold
  // percentiles and keep a trickle of eviction pressure on every shard.
  std::vector<ShardPoint> shard_series;
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    shard_series.push_back(
        run_shard_point(shards, service::shard::RoutingMode::kAffinity,
                        kShardPool, kShardRequests, 0.9,
                        ("s" + std::to_string(shards)).c_str()));
  }

  // Routing comparison at 4 shards: identical seeded traffic, only the
  // placement policy differs. Pool size 25 fits each shard's cache under
  // affinity (~6 scenarios per shard) and, being coprime with 4, makes
  // round-robin cycle every scenario across every shard — each shard then
  // sees the whole pool and thrashes. Any hit-rate gap is pure routing.
  const ShardPoint affinity_point =
      run_shard_point(4, service::shard::RoutingMode::kAffinity, 25,
                      kShardRequests, 1.0, "aff");
  const ShardPoint round_robin_point =
      run_shard_point(4, service::shard::RoutingMode::kRoundRobin, 25,
                      kShardRequests, 1.0, "rr");

  std::ostringstream json;
  json << "{\n";
  json << "  \"links\": " << n_links << ",\n";
  json << "  \"scheduler\": \"" << scheduler << "\",\n";
  json.precision(4);
  json << std::fixed;
  json << "  \"decode\": {\"reps\": " << kDecodeReps
       << ", \"host\": " << bench::HostJson() << ", \"sizes\": [\n";
  for (std::size_t i = 0; i < decode.size(); ++i) {
    const DecodePoint& point = decode[i];
    json << "    {\"links\": " << point.links
         << ", \"frame_bytes\": " << point.frame_bytes
         << ", \"parse_request_frame_us\": " << bench::Value(point.parse_us)
         << ", \"fnv1a64_us\": " << bench::Value(point.fnv_us)
         << ", \"raw_hit_us\": " << bench::Value(point.raw_hit_us)
         << ", \"parse_over_fnv\": "
         << bench::Value(point.parse_us.median / point.fnv_us.median)
         << ", \"bit_identical\": "
         << (point.bit_identical ? "true" : "false")
         << ", \"raw_hit_verified\": "
         << (point.raw_hit_verified ? "true" : "false") << "}"
         << (i + 1 < decode.size() ? "," : "") << "\n";
  }
  json << "  ]},\n";
  json << "  \"cold_ms\": " << cold_ms << ",\n";
  json << "  \"warm_ms\": " << warm_ms << ",\n";
  json << "  \"warm_speedup\": " << speedup << ",\n";
  json << "  \"cold_warm_bytes_identical\": "
       << (deterministic_pair ? "true" : "false") << ",\n";
  json << "  \"determinism\": {\"workers\": " << det_workers
       << ", \"requests\": " << det_requests
       << ", \"mismatches\": " << det_mismatches << "},\n";
  json << "  \"overload\": {\"queue_capacity\": 8, \"submitted\": 64, "
       << "\"shed\": " << shed_count << ", \"shed_error_kind\": \""
       << shed_kind << "\", \"shed_exit_code\": " << shed_exit_code << "},\n";
  json << "  \"throughput_vs_p99\": {\n";
  json << "    \"links\": " << load_links << ",\n";
  json << "    \"workers\": " << load_workers << ",\n";
  json << "    \"hot_fraction\": " << hot_fraction << ",\n";
  json << "    \"cold_ms\": " << cold_small_ms << ",\n";
  json << "    \"warm_ms\": " << warm_small_ms << ",\n";
  json << "    \"capacity_rps\": " << capacity_rps << ",\n";
  json << "    \"series\": [\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const LoadPoint& point = curve[i];
    json << "      {\"multiplier\": " << point.multiplier
         << ", \"offered_rps\": " << point.offered_rps
         << ", \"achieved_rps\": " << point.achieved_rps
         << ", \"requests\": " << point.requests
         << ", \"warm_ok\": " << point.warm_ok
         << ", \"cold_ok\": " << point.cold_ok
         << ", \"warm_shed\": " << point.warm_shed
         << ", \"cold_shed\": " << point.cold_shed
         << ", \"timed_out\": " << point.timed_out
         << ", \"warm_p50_ms\": " << point.warm_p50_ms
         << ", \"warm_p99_ms\": " << point.warm_p99_ms
         << ", \"cold_p99_ms\": " << point.cold_p99_ms
         << ", \"observed_warm_p99_ms\": " << point.observed_warm_p99_ms
         << ", \"observed_cold_p99_ms\": " << point.observed_cold_p99_ms << "}"
         << (i + 1 < curve.size() ? "," : "") << "\n";
  }
  json << "    ]\n";
  json << "  },\n";
  json << "  \"shard_scaling\": {\n";
  json << "    \"links\": " << shard_links << ",\n";
  json << "    \"pool\": " << shard_pool << ",\n";
  json << "    \"per_shard_cache_bytes\": " << kShardCacheBytes << ",\n";
  json << "    \"calibration_runs\": " << kCalibrationRuns << ",\n";
  json << "    \"host\": " << bench::HostJson() << ",\n";
  json << "    \"series\": [\n";
  for (std::size_t i = 0; i < shard_series.size(); ++i) {
    const ShardPoint& point = shard_series[i];
    json << "      {\"shards\": " << point.shards
         << ", \"capacity_rps\": " << bench::Value(point.capacity_rps)
         << ", \"cpu_us_per_req\": " << bench::Value(point.cpu_us_per_req)
         << ", \"offered_rps\": " << point.offered_rps
         << ", \"achieved_rps\": " << point.achieved_rps
         << ", \"requests\": " << point.requests
         << ", \"ok\": " << point.ok
         << ", \"shed\": " << point.shed
         << ", \"warm_p50_ms\": " << point.warm_p50_ms
         << ", \"warm_p99_ms\": " << point.warm_p99_ms
         << ", \"warm_corrected_p99_ms\": " << point.warm_corrected_p99_ms
         << ", \"cold_p99_ms\": " << point.cold_p99_ms
         << ", \"cold_corrected_p99_ms\": " << point.cold_corrected_p99_ms
         << ", \"warm_hit_rate\": " << point.warm_hit_rate << "}"
         << (i + 1 < shard_series.size() ? "," : "") << "\n";
  }
  json << "    ],\n";
  json << "    \"routing_comparison\": {\"shards\": 4, \"pool\": 25, "
       << "\"affinity_hit_rate\": " << affinity_point.warm_hit_rate
       << ", \"affinity_capacity_rps\": "
       << bench::Value(affinity_point.capacity_rps)
       << ", \"round_robin_hit_rate\": " << round_robin_point.warm_hit_rate
       << ", \"round_robin_capacity_rps\": "
       << bench::Value(round_robin_point.capacity_rps) << "}\n";
  json << "  }\n";
  json << "}\n";
  util::AtomicWriteFile(out_path, json.str());
  std::fputs(json.str().c_str(), stdout);

  if (check) {
    // Shard gates: the tier's median capacity must grow with the shard
    // count (cache multiplication, not CPU — so the bar is 1.3×, not N×),
    // and fingerprint affinity must strictly beat round-robin on warm
    // hits under identical traffic.
    const bool shards_scale =
        shard_series.back().capacity_rps.median >
        1.3 * shard_series.front().capacity_rps.median;
    const bool affinity_wins =
        affinity_point.warm_hit_rate > round_robin_point.warm_hit_rate;
    const bool ok = decode_identical && speedup >= 5.0 && deterministic_pair &&
                    det_mismatches == 0 && shed_count > 0 &&
                    shed_exit_code == util::kExitRuntime && shards_scale &&
                    affinity_wins;
    if (!ok) {
      std::fprintf(stderr,
                   "service_throughput --check FAILED "
                   "(decode_identical=%d shards_scale=%d affinity_wins=%d)\n",
                   decode_identical ? 1 : 0, shards_scale ? 1 : 0,
                   affinity_wins ? 1 : 0);
      return util::kExitRuntime;
    }
  }
  return util::kExitOk;
}
