#include "service/chaos/soak.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "service/chaos/faulty_transport.hpp"
#include "service/protocol.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service::chaos {

namespace {

std::vector<fadesched::testing::ScenarioCase> BuildPool(
    const ChaosSoakOptions& options) {
  fadesched::testing::FuzzerOptions fuzz;
  fuzz.min_links = options.links;
  fuzz.max_links = options.links;
  fuzz.extreme_params = false;
  fuzz.weighted_rates = false;
  fuzz.with_noise = false;
  fadesched::testing::ScenarioFuzzer fuzzer(options.seed, fuzz);
  std::vector<fadesched::testing::ScenarioCase> pool;
  pool.reserve(options.pool_size);
  for (std::size_t i = 0; i < options.pool_size; ++i) {
    pool.push_back(fuzzer.Case(i));
  }
  return pool;
}

/// Per-request terminal outcome codes written into the ledger.
constexpr char kNone = 0;
constexpr char kOk = 'o';
constexpr char kCorrupted = 'c';
constexpr char kFatal = 'f';
constexpr char kGaveUp = 'g';
constexpr char kUnserved = 'u';

}  // namespace

void ChaosSoakOptions::Validate() const {
  if (num_requests == 0) {
    throw util::FatalError("chaos soak: num_requests must be positive");
  }
  if (num_clients == 0) {
    throw util::FatalError("chaos soak: num_clients must be positive");
  }
  if (pool_size == 0) {
    throw util::FatalError("chaos soak: pool_size must be positive");
  }
  plan.Validate();
  retry.Validate();
  const bool in_process = endpoint.unix_socket_path.empty() &&
                          endpoint.port <= 0;
  if (drain_mid_run && !in_process && !on_drain) {
    throw util::FatalError(
        "chaos soak: drain_mid_run needs an in-process server (empty "
        "endpoint) or an on_drain hook");
  }
}

std::string ChaosSoakReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"sent\": " << sent << ",\n";
  out << "  \"ok\": " << ok << ",\n";
  out << "  \"failed_fatal\": " << failed_fatal << ",\n";
  out << "  \"gave_up\": " << gave_up << ",\n";
  out << "  \"unserved_after_drain\": " << unserved_after_drain << ",\n";
  out << "  \"lost\": " << lost << ",\n";
  out << "  \"duplicated\": " << duplicated << ",\n";
  out << "  \"corrupted\": " << corrupted << ",\n";
  out << "  \"retries\": " << retries << ",\n";
  out << "  \"reconnects\": " << reconnects << ",\n";
  out << "  \"stale_discarded\": " << stale_discarded << ",\n";
  out << "  \"corruption_detected\": " << corruption_detected << ",\n";
  out << "  \"faults_injected\": " << faults_injected << ",\n";
  out << "  \"injected_by_family\": {";
  for (std::size_t f = 0; f < kNumFaultFamilies; ++f) {
    if (f > 0) out << ", ";
    out << '"' << FaultFamilyName(static_cast<FaultFamily>(f))
        << "\": " << injected_by_family[f];
  }
  out << "},\n";
  out << "  \"drained\": " << (drained ? "true" : "false") << ",\n";
  out << "  \"first_failure\": \"" << first_failure << "\",\n";
  out.precision(6);
  out << std::fixed;
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"zero_loss\": " << (Ok() ? "true" : "false") << "\n";
  out << "}\n";
  return out.str();
}

ChaosSoakReport RunChaosSoak(const ChaosSoakOptions& options) {
  options.Validate();
  const bool in_process = options.endpoint.unix_socket_path.empty() &&
                          options.endpoint.port <= 0;

  Endpoint endpoint = options.endpoint;
  std::unique_ptr<shard::ShardServer> server;
  std::thread serving;
  std::exception_ptr serve_error;
  if (in_process) {
    shard::ShardServerOptions tier;  // num_shards 0: the local slot
    tier.server = options.server;
    tier.server.unix_socket_path =
        "/tmp/fs_chaos_" + std::to_string(::getpid()) + "_" +
        std::to_string(options.seed) + ".sock";
    tier.server.port = 0;
    server = std::make_unique<shard::ShardServer>(tier);
    server->Start();
    endpoint.unix_socket_path = tier.server.unix_socket_path;
    serving = std::thread([&server, &serve_error] {
      try {
        server->Serve();
      } catch (...) {
        serve_error = std::current_exception();
      }
    });
  }

  const std::vector<fadesched::testing::ScenarioCase> pool =
      BuildPool(options);

  // The ledger: exactly-one-terminal-outcome per request, by slot. Slots
  // are partitioned statically (request i → worker i mod num_clients), so
  // the per-slot writes are single-writer and the partition keeps each
  // worker's fault stream independent of the others' pace.
  std::vector<unsigned char> outcome_count(options.num_requests, 0);
  std::vector<char> outcome(options.num_requests, kNone);

  // First OK line per pool entry; every later OK must match
  // byte-for-byte.
  std::vector<std::string> expected(pool.size());
  std::mutex expected_mutex;

  std::mutex failure_mutex;
  std::string first_failure;
  const auto record_failure = [&](const std::string& message) {
    const std::lock_guard<std::mutex> lock(failure_mutex);
    if (first_failure.empty()) first_failure = message;
  };

  FaultTrace trace;
  ServiceMetrics local_metrics;
  ServiceMetrics* metrics =
      in_process ? &server->LocalService()->Metrics() : &local_metrics;

  std::atomic<std::size_t> done{0};
  std::atomic<bool> drained{false};
  const std::size_t drain_at =
      options.num_requests >= 2 ? options.num_requests / 2 : 1;

  struct WorkerSums {
    std::size_t retries = 0;
    std::size_t reconnects = 0;
    std::size_t stale = 0;
    std::size_t corruption = 0;
  };
  std::vector<WorkerSums> sums(options.num_clients);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(options.num_clients);
  for (std::size_t w = 0; w < options.num_clients; ++w) {
    workers.emplace_back([&, w] {
      RetryOptions retry = options.retry;
      retry.jitter_seed = options.seed ^ (0x5bd1e9955bd1e995ULL * (w + 1));
      RetryingClient client(
          std::make_unique<FaultyTransport>(
              std::make_unique<SocketTransport>(endpoint, options.client),
              options.plan, w, &trace, metrics),
          retry, metrics);
      // Per-worker circuit breaker: once a post-drain request has
      // exhausted its retries against the vanished endpoint, later
      // requests are declared unserved immediately — one request per
      // worker still exercises the full typed-error retry ladder, the
      // rest need not re-prove the endpoint is gone.
      bool endpoint_gone = false;
      for (std::size_t i = w; i < options.num_requests;
           i += options.num_clients) {
        const std::size_t pool_index = i % pool.size();
        if (endpoint_gone && drained.load(std::memory_order_relaxed)) {
          ++outcome_count[i];
          outcome[i] = kUnserved;
          done.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        SchedulingRequest request;
        request.scenario = pool[pool_index];
        request.scheduler = options.scheduler;
        // One id per pool entry (not per request): identical content ⇒
        // identical wire bytes ⇒ the response must be byte-identical
        // too, cache hit or not.
        request.id = "p" + std::to_string(pool_index);
        char result = kGaveUp;
        try {
          const SchedulingResponse response = client.Call(request);
          if (response.Ok()) {
            result = kOk;
            const std::string line = FormatResponseLine(response);
            const std::lock_guard<std::mutex> lock(expected_mutex);
            std::string& first = expected[pool_index];
            if (first.empty()) {
              first = line;
            } else if (first != line) {
              result = kCorrupted;
              record_failure("pool entry " + std::to_string(pool_index) +
                             " served a divergent OK line: '" + line +
                             "' vs '" + first + "'");
            }
          } else {
            result = kFatal;
            record_failure("request " + std::to_string(i) +
                           " got a fatal response: " + response.message);
          }
        } catch (const util::HarnessError& e) {
          if (e.kind() == util::ErrorKind::kFatal) {
            result = kFatal;
          } else if (drained.load(std::memory_order_relaxed) ||
                     options.allow_unserved) {
            result = kUnserved;
            if (drained.load(std::memory_order_relaxed)) {
              endpoint_gone = true;
            }
          } else {
            result = kGaveUp;
          }
          if (result != kUnserved) {
            record_failure("request " + std::to_string(i) + ": " + e.what());
          }
        } catch (const std::exception& e) {
          result = kGaveUp;
          record_failure("request " + std::to_string(i) +
                         " (unclassified): " + e.what());
        }
        const CallStats& stats = client.LastCallStats();
        sums[w].retries += stats.attempts > 0 ? stats.attempts - 1 : 0;
        sums[w].reconnects += stats.reconnects;
        sums[w].stale += stats.stale_discarded;
        sums[w].corruption += stats.corruption_detected;
        ++outcome_count[i];
        outcome[i] = result;
        const std::size_t completed =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.drain_mid_run && completed == drain_at &&
            !drained.exchange(true)) {
          if (options.on_drain) {
            options.on_drain();
          } else if (server) {
            server->Stop();
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  if (in_process) {
    server->Stop();
    serving.join();
    if (serve_error) std::rethrow_exception(serve_error);
  }

  ChaosSoakReport report;
  report.sent = options.num_requests;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (std::size_t i = 0; i < options.num_requests; ++i) {
    if (outcome_count[i] == 0) {
      ++report.lost;
      continue;
    }
    if (outcome_count[i] > 1) ++report.duplicated;
    switch (outcome[i]) {
      case kOk: ++report.ok; break;
      case kCorrupted: ++report.corrupted; break;
      case kFatal: ++report.failed_fatal; break;
      case kUnserved: ++report.unserved_after_drain; break;
      default: ++report.gave_up; break;
    }
  }
  for (const WorkerSums& sum : sums) {
    report.retries += sum.retries;
    report.reconnects += sum.reconnects;
    report.stale_discarded += sum.stale;
    report.corruption_detected += sum.corruption;
  }
  report.faults_injected = trace.Count();
  report.injected_by_family = trace.CountsByFamily();
  report.drained = drained.load();
  report.first_failure = first_failure;
  report.trace = trace.Format();
  return report;
}

std::string ShrinkChaosFailure(const ChaosSoakOptions& options) {
  ChaosSoakOptions probe = options;
  // Each probe owns a fresh in-process server; the drain is not a fault
  // family, so it is pinned off during shrinking.
  probe.endpoint = Endpoint{};
  probe.drain_mid_run = false;
  probe.on_drain = nullptr;
  ChaosPlan minimal = options.plan;
  // Greedy one-pass delta debugging over fault families: drop a family
  // whenever the failure still reproduces without it.
  for (std::size_t f = 0; f < kNumFaultFamilies; ++f) {
    const FaultFamily family = static_cast<FaultFamily>(f);
    if (minimal.Probability(family) <= 0.0) continue;
    ChaosPlan candidate = minimal;
    candidate.SetProbability(family, 0.0);
    probe.plan = candidate;
    if (!RunChaosSoak(probe).Ok()) minimal = candidate;
  }
  return "chaos repro: seed=" + std::to_string(minimal.seed) +
         " requests=" + std::to_string(options.num_requests) +
         " clients=" + std::to_string(options.num_clients) +
         " pool=" + std::to_string(options.pool_size) +
         " links=" + std::to_string(options.links) +
         " families: " + minimal.Describe();
}

}  // namespace fadesched::service::chaos
