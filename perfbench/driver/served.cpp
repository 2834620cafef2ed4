// The three served workloads: `fadesched_cli serve` driven closed-loop on
// two connections by this single-threaded process.
//
//   warm_replay    64 N=600 topologies under rle, all warmed in set-up and
//                  replayed round-robin: the response cache's read path.
//   cold_unique    a distinct N=2000 topology per request under rle, cache
//                  filled to its 64 MiB budget in set-up: every timed
//                  request is a cache insert plus eviction.
//   paper_compare  `serve --shards 2`; each fresh N=600 topology is sent
//                  under the five schedulers of the paper's comparison
//                  back to back on one connection: scheduler-bound, and the
//                  only workload crossing the router and shard pipe.
//
// Every reply is compared byte-for-byte with a fresh in-process
// SchedulingService::HandleNow + FormatResponseLine, and every schedule of
// a fading-feasible scheduler is re-checked with the Corollary 3.1 oracle
// (channel::ScheduleIsFeasible).
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "channel/batch_interference.hpp"
#include "channel/feasibility.hpp"
#include "channel/interference.hpp"
#include "process.hpp"
#include "sched/registry.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/scenario_cache.hpp"
#include "service/service.hpp"
#include "service/shard/frame_scanner.hpp"
#include "service/shard/hash_ring.hpp"
#include "service/shard/pipe.hpp"
#include "service/shard/shard_server.hpp"
#include "trace.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

namespace channel = fadesched::channel;
namespace service = fadesched::service;
namespace shard = fadesched::service::shard;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindows = 20;
constexpr std::size_t kSetups = 7;  ///< set-ups per run; setup_s is their median
constexpr std::size_t kCacheMb = 64;

struct Spec {
  std::size_t links = 600;
  std::size_t bases = 64;
  std::vector<std::string> schedulers{"rle"};
  bool fresh = false;         ///< every job a new topology (else cycle bases)
  std::size_t shards = 0;     ///< 0 = plain `serve`
  std::size_t warm_jobs = 0;  ///< set-up jobs; 0 = fill the cache budget
  /// Fresh workloads pre-generate this many jobs per timed second: far
  /// above the measured rate, so a much faster server still never runs out.
  std::size_t jobs_per_second_cap = 0;
  std::size_t replay_requests = 0;  ///< traced replay sample
};

Spec SpecFor(const std::string& workload) {
  Spec spec;
  if (workload == "warm_replay") {
    spec.warm_jobs = spec.bases;
    spec.replay_requests = 256;
  } else if (workload == "cold_unique") {
    spec.links = 2000;
    spec.bases = 32;
    spec.fresh = true;
    spec.jobs_per_second_cap = 3000;
    spec.replay_requests = 48;
  } else {
    spec.bases = 128;
    spec.schedulers = kSchedulers;
    spec.fresh = true;
    spec.shards = 2;
    spec.warm_jobs = 8;
    spec.jobs_per_second_cap = 1500;
    spec.replay_requests = 200;
  }
  return spec;
}

service::ServiceOptions ReplicaOptions() {
  service::ServiceOptions options;
  options.cache.capacity_bytes = kCacheMb << 20;
  options.batcher.num_workers = 1;  // HandleNow runs on the caller thread
  return options;
}

/// Set-up jobs that take a fresh server's cache past its byte budget,
/// from the cache's own cost model: per job, a scenario entry plus a
/// response entry (node overhead + canonical bytes; the schedule's few
/// ids are left out, so the estimate errs high).
std::size_t FillJobs(const RequestSet& set) {
  service::SchedulingRequest request;
  request.scenario = set.BaseScenario(0);
  service::ScenarioCache::Scenario scenario;
  scenario.links = request.scenario.links;
  scenario.canonical_scenario =
      service::FingerprintRequest(request).canonical_scenario;
  const std::size_t per_job =
      service::ScenarioCache::EstimateScenarioBytes(scenario, {}) + 512 +
      scenario.canonical_scenario.size();
  // 10% past the budget, so eviction is under way before timing.
  return (kCacheMb << 20) * 11 / 10 / per_job + 1;
}

// ---------------------------------------------------------------------------
// Closed loop

struct Sample {
  std::uint32_t request = 0;
  double latency_ms = 0.0;
  std::string reply;
};

struct LoopOutcome {
  std::vector<Sample> samples;
  std::vector<std::uint32_t> send_order;
  std::size_t next_job = 0;  ///< first job not started
  double seconds = 0.0;
  bool exhausted = false;
};

/// Runs jobs [first_job, end_job) closed-loop: each connection sends its
/// next request the moment its previous reply lands; a job's requests go
/// back to back on one connection. With `seconds` > 0 no request starts
/// after the deadline. `job_request(j)` gives job j's first request, or -1
/// when the pre-generated inputs ran out.
template <typename JobRequest>
LoopOutcome RunClosedLoop(const std::vector<int>& fds, const RequestSet& set,
                          JobRequest job_request, std::size_t first_job,
                          std::size_t end_job, double seconds) {
  struct Conn {
    int fd = -1;
    bool busy = false;
    long job_first = -1;
    std::size_t k = 0;
    std::uint32_t request = 0;
    std::array<iovec, 4> iov{};
    std::size_t iov_at = 0;
    Clock::time_point sent_at;
    std::string buffer;
  };
  LoopOutcome out;
  std::vector<Conn> conns(fds.size());
  for (std::size_t c = 0; c < fds.size(); ++c) conns[c].fd = fds[c];
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t next_job = first_job;
  Clock::time_point last_reply = start;

  const auto flush = [](Conn& conn) {
    while (conn.iov_at < conn.iov.size()) {
      const ssize_t n =
          ::writev(conn.fd, conn.iov.data() + conn.iov_at,
                   static_cast<int>(conn.iov.size() - conn.iov_at));
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      auto left = static_cast<std::size_t>(n);
      while (conn.iov_at < conn.iov.size() &&
             left >= conn.iov[conn.iov_at].iov_len) {
        left -= conn.iov[conn.iov_at].iov_len;
        ++conn.iov_at;
      }
      if (left > 0) {
        iovec& piece = conn.iov[conn.iov_at];
        piece.iov_base = static_cast<char*>(piece.iov_base) + left;
        piece.iov_len -= left;
      }
    }
  };
  const auto start_next = [&](Conn& conn) {
    if (seconds > 0.0 && Clock::now() >= deadline) return;
    if (conn.job_first >= 0 && conn.k + 1 < set.JobSize()) {
      ++conn.k;
    } else {
      if (next_job >= end_job) return;
      const long first = job_request(next_job);
      if (first < 0) {
        out.exhausted = true;
        return;
      }
      ++next_job;
      conn.job_first = first;
      conn.k = 0;
    }
    conn.request = static_cast<std::uint32_t>(conn.job_first) +
                   static_cast<std::uint32_t>(conn.k);
    conn.iov = set.Pieces(conn.request);
    conn.iov_at = 0;
    conn.busy = true;
    out.send_order.push_back(conn.request);
    conn.sent_at = Clock::now();
    flush(conn);
  };

  for (Conn& conn : conns) start_next(conn);
  std::vector<pollfd> pfds(conns.size());
  char chunk[65536];
  while (true) {
    std::size_t busy = 0;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c].fd = conns[c].busy ? conns[c].fd : -1;
      pfds[c].events = static_cast<short>(
          conns[c].iov_at < conns[c].iov.size() ? POLLOUT : POLLIN);
      pfds[c].revents = 0;
      busy += conns[c].busy ? 1 : 0;
    }
    if (busy == 0) break;
    const int ready = ::poll(pfds.data(), pfds.size(), 60000);
    if (ready == 0) throw std::runtime_error("no reply within 60 s");
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (pfds[c].revents == 0) continue;
      if (conn.iov_at < conn.iov.size()) {
        flush(conn);
        continue;
      }
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error("receive failed");
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      const std::size_t eol = conn.buffer.find('\n');
      if (eol == std::string::npos) continue;
      last_reply = Clock::now();
      Sample sample;
      sample.request = conn.request;
      sample.latency_ms =
          std::chrono::duration<double, std::milli>(last_reply - conn.sent_at)
              .count();
      sample.reply = conn.buffer.substr(0, eol);
      conn.buffer.erase(0, eol + 1);
      if (!conn.buffer.empty()) throw std::runtime_error("unsolicited reply");
      out.samples.push_back(std::move(sample));
      conn.busy = false;
      start_next(conn);
    }
  }
  out.seconds = std::chrono::duration<double>(last_reply - start).count();
  out.next_job = next_job;
  return out;
}

// ---------------------------------------------------------------------------
// Ground truth

struct Truth {
  std::string line;
  bool feasible = false;
};

class TruthTable {
 public:
  explicit TruthTable(const RequestSet& set)
      : set_(set),
        service_(std::make_unique<service::SchedulingService>(ReplicaOptions())) {}

  /// Computes the truths of `requests` on a few threads. Runs after the
  /// timed windows; SchedulingService::HandleNow is thread-safe.
  void Compute(const std::vector<std::uint32_t>& requests) {
    std::vector<std::uint32_t> todo;
    for (const std::uint32_t r : requests) {
      if (truths_.emplace(r, Truth{}).second) todo.push_back(r);
    }
    std::vector<Truth> computed(todo.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTruthThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
          computed[i] = Make(todo[i]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      truths_[todo[i]] = std::move(computed[i]);
    }
  }

  const Truth& For(std::uint32_t request) {
    auto it = truths_.find(request);
    if (it == truths_.end()) it = truths_.emplace(request, Make(request)).first;
    return it->second;
  }

 private:
  static constexpr std::size_t kTruthThreads = 3;

  Truth Make(std::uint32_t request) const {
    const service::SchedulingRequest in = set_.Request(request);
    const service::SchedulingResponse response = service_->HandleNow(in);
    Truth truth;
    truth.line = service::FormatResponseLine(response);
    // The oracle binds only schedulers whose contract claims Corollary 3.1
    // feasibility; approx_logn and approx_diversity ignore fading by
    // design (they are the paper's baselines).
    if (response.Ok()) {
      const channel::InterferenceCalculator calc(in.scenario.links,
                                                 in.scenario.params);
      truth.feasible =
          !fadesched::sched::ContractFor(in.scheduler).fading_feasible ||
          channel::ScheduleIsFeasible(calc, response.schedule);
    }
    return truth;
  }

  const RequestSet& set_;
  std::unique_ptr<service::SchedulingService> service_;
  std::unordered_map<std::uint32_t, Truth> truths_;
};

// ---------------------------------------------------------------------------
// In-process replay (the traced run)

/// The server's state, rebuilt in-process: one SchedulingService per shard
/// (one for plain `serve`) and the router's hash ring.
class Replica {
 public:
  explicit Replica(std::size_t shards)
      : sharded_(shards > 0),
        ring_(shard::HashRingOptions{std::max<std::size_t>(shards, 1),
                                     shard::ShardServerOptions{}.vnodes_per_shard,
                                     shard::ShardServerOptions{}.ring_seed}) {
    for (std::size_t s = 0; s < std::max<std::size_t>(shards, 1); ++s) {
      services_.push_back(
          std::make_unique<service::SchedulingService>(ReplicaOptions()));
    }
  }

  /// Untimed: brings the replica to the state set-up left the server in.
  void Prime(const RequestSet& set, std::uint32_t request) {
    const std::string frame = ScanFrame(set.Frame(request));
    services_[sharded_ ? ring_.ShardFor(shard::RoutingKey(frame)) : 0]
        ->HandleNow(set.Request(request));
  }

  /// One request through every layer the server runs it through, in the
  /// server's order, each public call inside its own span. Returns the
  /// response line.
  std::string Run(const std::string& bytes, std::uint32_t request,
                  Tracer* tracer);

  /// The same request through the library's own SchedulingService::Submit
  /// instead of Run's step-by-step copy of it.
  std::string Submit(const std::string& bytes, std::uint32_t request) {
    std::size_t target = 0;
    service::SchedulingRequest in = Route(bytes, request, nullptr, &target);
    return service::FormatResponseLine(
        services_[target]->Submit(std::move(in)).get());
  }

  /// Cache counters summed over the shards: response hits and misses,
  /// scenario hits and misses, evictions.
  [[nodiscard]] std::array<std::uint64_t, 5> CacheCounters() const {
    std::array<std::uint64_t, 5> total{};
    for (const auto& s : services_) {
      const service::ServiceMetrics& m = s->Metrics();
      total[0] += m.response_hits.load();
      total[1] += m.response_misses.load();
      total[2] += m.scenario_hits.load();
      total[3] += m.scenario_misses.load();
      total[4] += m.cache_evictions.load();
    }
    return total;
  }

 private:
  static std::string ScanFrame(const std::string& bytes) {
    shard::FrameScanner scanner;
    scanner.Feed(bytes.data(), bytes.size());
    std::vector<shard::ScanEvent> events = scanner.Drain();
    if (events.size() != 1) throw std::runtime_error("frame did not scan");
    return std::move(events[0].frame);
  }

  /// The router's and the parser's part of a request: frame scan, routing
  /// and the shard pipe when sharded, then parsing. Sets *target to the
  /// shard the request lands on.
  service::SchedulingRequest Route(const std::string& bytes, std::uint64_t id,
                                   Tracer* tracer, std::size_t* target);

  bool sharded_;
  shard::HashRing ring_;
  std::vector<std::unique_ptr<service::SchedulingService>> services_;
};

service::SchedulingRequest Replica::Route(const std::string& bytes,
                                          std::uint64_t id, Tracer* tracer,
                                          std::size_t* target) {
  if (sharded_) {
    std::string frame;
    {
      Span span(tracer, "shard.frame_scan", id);
      frame = ScanFrame(bytes);
    }
    {
      Span span(tracer, "shard.routing_key", id);
      *target = ring_.ShardFor(shard::RoutingKey(frame));
    }
    {
      Span span(tracer, "shard.pipe_codec", id);
      std::string pipe;
      shard::AppendPipeMsg(pipe, {shard::PipeMsgKind::kRequest, id, frame});
      shard::PipeDecoder decoder;
      decoder.Feed(pipe.data(), pipe.size());
      frame = decoder.Pop().value().payload;
    }
    Span span(tracer, "protocol.parse", id);
    return service::ParseRequestFrame(frame);
  } else {
    // Plain `serve` reads line by line into a FrameAssembler.
    Span span(tracer, "protocol.parse", id);
    service::FrameAssembler assembler;
    std::size_t begin = 0;
    while (!assembler.Done()) {
      const std::size_t end = bytes.find('\n', begin);
      assembler.Feed(bytes.substr(begin, end - begin));
      begin = end + 1;
    }
    return assembler.Parse();
  }
}

std::string Replica::Run(const std::string& bytes, std::uint32_t request,
                         Tracer* tracer) {
  const std::uint64_t id = request;
  service::ScenarioCache::ScenarioPtr built;
  std::string line;
  {
    Span root(tracer, "request", id);
    std::size_t target = 0;
    const service::SchedulingRequest in = Route(bytes, id, tracer, &target);

    // SchedulingService::Submit, then HandleNow on a worker for a miss.
    service::SchedulingService& svc = *services_[target];
    service::ScenarioCache& cache = svc.Cache();
    service::Fingerprint fp;
    {
      Span span(tracer, "request.fingerprint", id);
      fp = service::FingerprintRequest(in);
    }
    service::SchedulingResponse response;
    bool hit = false;
    {
      Span span(tracer, "scenario_cache.lookup", id);
      hit = cache.LookupResponse(fp, &response, /*count_miss=*/false);
    }
    if (!hit) {
      {
        Span span(tracer, "scenario_cache.lookup", id);
        (void)cache.IsWarm(fp);
      }
      {
        Span span(tracer, "request.fingerprint", id);
        fp = service::FingerprintRequest(in);
      }
      {
        Span span(tracer, "scenario_cache.lookup", id);
        hit = cache.LookupResponse(fp, &response);
      }
    }
    if (!hit) {
      bool scenario_hit = false;
      {
        Span span(tracer, "scenario_cache.store", id);
        built = cache.ObtainScenario(fp, in, &scenario_hit);
        if (scenario_hit) span.Rename("scenario_cache.lookup");
      }
      {
        Span span(tracer, "sched." + fp.scheduler, id);
        channel::EngineOptions options = built->engine->Options();
        options.shared = std::shared_ptr<const channel::InterferenceEngine>(
            built, &*built->engine);
        const fadesched::sched::ScheduleResult result =
            fadesched::sched::MakeScheduler(fp.scheduler, options)
                ->Schedule(built->links, built->params);
        response.status = service::ResponseStatus::kOk;
        response.schedule = result.schedule;
        response.claimed_rate = result.claimed_rate;
      }
      {
        Span span(tracer, "scenario_cache.store", id);
        cache.StoreResponse(fp, response);
      }
      if (scenario_hit) built.reset();
    }
    response.id = in.id;
    {
      Span span(tracer, "protocol.format_response", id);
      line = service::FormatResponseLine(response);
    }
    if (sharded_) {
      Span span(tracer, "shard.pipe_codec", id);
      std::string pipe;
      shard::AppendPipeMsg(pipe, {shard::PipeMsgKind::kResponse, id, line});
      shard::PipeDecoder decoder;
      decoder.Feed(pipe.data(), pipe.size());
      line = decoder.Pop().value().payload;
    }
  }
  if (built != nullptr && tracer != nullptr) {
    // ObtainScenario builds the engine inside the cache; an identical
    // build outside the request splits the write path into its engine
    // build and the rest (copy, insert, evict).
    Span span(tracer, "channel.engine_build", id);
    const channel::InterferenceEngine engine(built->links, built->params,
                                             channel::EngineOptions{});
  }
  return line;
}

struct Replay {
  std::vector<double> untraced_us;  ///< per request
  std::vector<double> ratio;        ///< traced / untraced, per request
  std::uint64_t evictions = 0;
  std::size_t mismatches = 0;
  /// The traced replica's cache counters differ from those of the replica
  /// driven through SchedulingService::Submit: Replica::Run no longer
  /// follows the library's request path.
  bool diverged = false;
};

/// Replays `sample` on two fresh replicas primed with the set-up jobs,
/// one untraced and one traced, request by request and alternating which
/// goes first: each pair runs moments apart, so host contention hits both
/// sides alike and the per-request ratio isolates the cost of tracing.
/// A third replica runs the sample through the real Submit, untimed, and
/// must end with the traced replica's cache counters.
Replay RunReplay(const Spec& spec, const RequestSet& set, std::size_t warm_jobs,
                 const std::vector<std::uint32_t>& sample, TruthTable& truth,
                 Tracer& tracer) {
  Replica plain(spec.shards), traced(spec.shards), submitted(spec.shards);
  for (std::size_t j = 0; j < warm_jobs; ++j) {
    for (std::size_t k = 0; k < set.JobSize(); ++k) {
      const auto request = static_cast<std::uint32_t>(j * set.JobSize() + k);
      plain.Prime(set, request);
      traced.Prime(set, request);
      submitted.Prime(set, request);
    }
  }
  Replay replay;
  const std::uint64_t evictions_before = traced.CacheCounters()[4];
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::uint32_t request = sample[i];
    const std::string bytes = set.Frame(request);  // already on the wire
    double us[2] = {0.0, 0.0};
    for (std::size_t turn = 0; turn < 2; ++turn) {
      const bool with_tracer = (turn + i) % 2 == 1;
      const Clock::time_point start = Clock::now();
      const std::string line = with_tracer ? traced.Run(bytes, request, &tracer)
                                           : plain.Run(bytes, request, nullptr);
      us[with_tracer ? 1 : 0] = 1e6 * SecondsSince(start);
      if (line != truth.For(request).line) ++replay.mismatches;
    }
    replay.untraced_us.push_back(us[0]);
    replay.ratio.push_back(us[1] / us[0]);
    if (submitted.Submit(bytes, request) != truth.For(request).line) {
      ++replay.mismatches;
    }
  }
  replay.evictions = traced.CacheCounters()[4] - evictions_before;
  replay.diverged = traced.CacheCounters() != submitted.CacheCounters();
  return replay;
}

}  // namespace

Result RunServedWorkload(const Args& args) {
  const Spec spec = SpecFor(args.workload);
  Result result;

  // ---- inputs, all formatted before any timing ----
  const Clock::time_point gen_start = Clock::now();
  RequestSet set(args.seed, spec.bases, spec.links, spec.schedulers);
  std::size_t warm_jobs = spec.warm_jobs;
  if (!spec.fresh) {
    for (std::size_t b = 0; b < spec.bases; ++b) set.AddJob(b, false);
  } else {
    if (warm_jobs == 0) warm_jobs = FillJobs(set);
    const std::size_t jobs =
        warm_jobs + static_cast<std::size_t>(args.seconds *
                                             static_cast<double>(
                                                 spec.jobs_per_second_cap));
    for (std::size_t j = 0; j < jobs; ++j) set.AddJob(j % spec.bases, true);
  }
  if (const long bad = set.SelfCheck(); bad >= 0) {
    throw std::runtime_error("pre-formatted frame " + std::to_string(bad) +
                             " differs from FormatRequestFrame");
  }
  const auto job_request = [&](std::size_t job) -> long {
    const std::size_t jobs = set.NumRequests() / set.JobSize();
    const std::size_t j = spec.fresh ? job : job % jobs;
    return j < jobs ? static_cast<long>(j * set.JobSize()) : -1;
  };
  Note("%s: %zu requests pre-formatted in %.2f s, %zu set-up jobs",
       args.workload.c_str(), set.NumRequests(), SecondsSince(gen_start),
       warm_jobs);

  // ---- set-up, kSetups times; the last server is measured ----
  const std::string socket = args.run_dir + "/" + args.workload + ".sock";
  std::vector<std::string> argv{args.cli,  "serve",      "--unix",
                                socket,    "--workers",  "2",
                                "--cache-mb", std::to_string(kCacheMb)};
  if (spec.shards > 0) {
    argv.insert(argv.end(), {"--shards", std::to_string(spec.shards)});
  }
  // setup_s counts CPU, not wall time: the server tree's CPU from spawn to
  // the end of warm-up plus this process's own. Wall time on a shared host
  // follows the host's other tenants; it is printed on stderr.
  std::vector<double> setup_cpu, setup_wall;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<service::Client>> clients;
  std::vector<int> fds;
  for (std::size_t round = 0; round < kSetups; ++round) {
    clients.clear();
    fds.clear();
    server.reset();
    ::unlink(socket.c_str());
    const Clock::time_point start = Clock::now();
    const double self_before = SelfCpuSeconds();
    server = std::make_unique<ServerProcess>(argv);
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<service::Client>());
      clients.back()->ConnectUnix(socket);
      fds.push_back(clients.back()->NativeHandle());
    }
    const LoopOutcome warm =
        RunClosedLoop(fds, set, job_request, 0, warm_jobs, 0.0);
    setup_wall.push_back(SecondsSince(start));
    setup_cpu.push_back(ReadTreeUsage(server->Pid()).cpu_seconds +
                        SelfCpuSeconds() - self_before);
    for (const Sample& sample : warm.samples) {
      if (sample.reply.rfind("OK ", 0) != 0) {
        result.Fail("set-up reply not OK: " + sample.reply.substr(0, 200));
        break;
      }
    }
  }

  // ---- the timed windows ----
  // kWindows back-to-back windows; the server tree's CPU and this
  // process's are read between them, outside timing. Each end-to-end
  // figure is the median over the windows, so a burst of contention from
  // the host's other tenants moves few of them.
  const service::StatsSnapshot before = clients[0]->Stats();
  std::vector<LoopOutcome> windows;
  std::vector<double> window_cpu, window_self_cpu;
  std::size_t next_job = warm_jobs;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double cpu_before = ReadTreeUsage(server->Pid()).cpu_seconds;
    const double self_before = SelfCpuSeconds();
    windows.push_back(RunClosedLoop(fds, set, job_request, next_job,
                                    static_cast<std::size_t>(-1),
                                    args.seconds / kWindows));
    window_self_cpu.push_back(SelfCpuSeconds() - self_before);
    window_cpu.push_back(ReadTreeUsage(server->Pid()).cpu_seconds - cpu_before);
    next_job = windows.back().next_job;
  }
  const TreeUsage usage = ReadTreeUsage(server->Pid());
  const service::StatsSnapshot after = clients[0]->Stats();
  clients.clear();
  const int status = server->Stop();
  server.reset();
  if (status != 0) result.Fail("serve exited with status " + std::to_string(status));

  // ---- output check ----
  TruthTable truth(set);
  for (const LoopOutcome& run : windows) truth.Compute(run.send_order);
  std::vector<double> latencies, throughput, p50, p90, cpu_per_req, self_per_req;
  std::vector<std::uint32_t> send_order;
  std::size_t sent = 0, verified = 0, reported = 0;
  const auto fail_once = [&](const std::string& why) {
    if (reported++ < 3) result.Fail(why);  // the count follows below
  };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const LoopOutcome& run = windows[w];
    if (run.exhausted) {
      result.Fail("pre-generated inputs ran out: raise jobs_per_second_cap");
    }
    std::vector<double> window_latencies;
    for (const Sample& sample : run.samples) {
      const Truth& expected = truth.For(sample.request);
      if (!expected.feasible) {
        fail_once("schedule fails the Corollary 3.1 oracle: " +
                  expected.line.substr(0, 200));
      } else if (sample.reply != expected.line) {
        fail_once("reply differs from ground truth: " +
                  sample.reply.substr(0, 200));
      } else {
        window_latencies.push_back(sample.latency_ms);
      }
    }
    sent += run.send_order.size();
    verified += window_latencies.size();
    send_order.insert(send_order.end(), run.send_order.begin(),
                      run.send_order.end());
    const auto completed = static_cast<double>(run.samples.size());
    throughput.push_back(static_cast<double>(window_latencies.size()) / run.seconds);
    p50.push_back(Quantile(window_latencies, 0.5));
    p90.push_back(Quantile(window_latencies, 0.9));
    cpu_per_req.push_back(1e6 * window_cpu[w] / completed);
    self_per_req.push_back(1e6 * window_self_cpu[w] /
                           static_cast<double>(run.send_order.size()));
    latencies.insert(latencies.end(), window_latencies.begin(),
                     window_latencies.end());
  }
  result.attempted = sent;
  result.failed = sent - verified;
  if (verified == 0 || result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " of " + std::to_string(sent) +
                " requests not verified");
  }

  // ---- STATS over the timed windows ----
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double response_hits = delta(before.response_hits, after.response_hits);
  const double response_misses =
      delta(before.response_misses, after.response_misses);
  const double scenario_hits = delta(before.scenario_hits, after.scenario_hits);
  const double scenario_misses =
      delta(before.scenario_misses, after.scenario_misses);
  const double sheds = delta(before.Sheds(), after.Sheds());
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const double response_hit_rate =
      ratio(response_hits, response_hits + response_misses);
  const double scenario_hit_rate =
      ratio(scenario_hits, scenario_hits + scenario_misses);
  if (sheds != 0.0) result.Fail("server shed requests in the timed window");
  if (args.workload == "warm_replay" && response_hit_rate != 1.0) {
    result.Fail("warm_replay response hit rate " +
                std::to_string(response_hit_rate) + " is not 1.0");
  }
  if (args.workload == "cold_unique" && response_hits != 0.0) {
    result.Fail("cold_unique served a response-cache hit");
  }
  if (args.workload == "paper_compare" && scenario_hits == 0.0) {
    result.Fail("paper_compare reported no scenario-cache hits");
  }

  for (std::size_t w = 0; w < windows.size(); ++w) {
    Note("%s window %zu: %.1f rps, p50 %.4f ms, p90 %.4f ms, %.1f us cpu/req",
         args.workload.c_str(), w, throughput[w], p50[w], p90[w],
         cpu_per_req[w]);
  }
  const auto median = [](const std::vector<double>& values) {
    return Quantile(values, 0.5);
  };
  const double throughput_rps = median(throughput);
  const double p50_ms = median(p50);
  const double server_cpu_us = median(cpu_per_req);
  // Wall-clock figures (throughput, percentiles) are diagnostics, not gated:
  // on a host whose hypervisor steals a varying share of the CPU they swing
  // far more between runs than the CPU cost per request does.
  Note("%s: %zu sent, %zu verified in %zu windows; throughput_rps %.2f, "
       "p50_ms %.4f, p90_ms %.4f, p99_ms %.4f over %zu samples; server "
       "tree %zu processes; hit rates %.3f/%.3f; set-up wall %.4f s",
       args.workload.c_str(), sent, verified, windows.size(), throughput_rps,
       p50_ms, median(p90), Quantile(latencies, 0.99), latencies.size(),
       usage.processes, response_hit_rate, scenario_hit_rate,
       median(setup_wall));

  if (!args.trace) {
    result.Add("server_cpu_us_per_req", server_cpu_us, "us");
    result.Add("success_rate",
               static_cast<double>(verified) / static_cast<double>(sent),
               "ratio");
    result.Add("setup_s", median(setup_cpu), "s");
    result.Add("rss_mb", usage.peak_rss_mb, "MB");
    return result;
  }

  // ---- traced replay of a sample, in send order ----
  std::vector<std::uint32_t> sample(
      send_order.begin(),
      send_order.begin() +
          static_cast<long>(std::min(spec.replay_requests, send_order.size())));
  Tracer tracer;
  const Replay replay = RunReplay(spec, set, warm_jobs, sample, truth, tracer);
  tracer.WriteJsonLines(args.run_dir + "/" + args.workload + ".spans.jsonl");
  if (replay.mismatches > 0) {
    result.Fail("in-process replay differs from ground truth");
  }
  if (replay.diverged) {
    result.Fail("traced replay's cache counters differ from "
                "SchedulingService::Submit's on the same requests");
  }

  const std::map<std::string, Tracer::SelfTime> self = tracer.SelfTimes();
  const auto total = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.total_us;
  };
  const auto spans = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? std::size_t{0} : it->second.spans;
  };
  const auto per = [](double value, double count) {
    return count > 0.0 ? value / count : 0.0;
  };
  const auto n = static_cast<double>(sample.size());
  double scheduled = 0.0;
  for (const std::string& name : kSchedulers) {
    scheduled += static_cast<double>(spans("sched." + std::string(name)));
  }
  const double builds = static_cast<double>(spans("channel.engine_build"));
  const double untraced_us = Quantile(replay.untraced_us, 0.5);

  result.Add("protocol.parse_us", per(total("protocol.parse"), n), "us");
  result.Add("request.fingerprint_us", per(total("request.fingerprint"), n), "us");
  result.Add("protocol.format_response_us",
             per(total("protocol.format_response"), n), "us");
  result.Add("scenario_cache.lookup_us", per(total("scenario_cache.lookup"), n),
             "us");
  result.Add("scenario_cache.store_us",
             per(std::max(0.0, total("scenario_cache.store") -
                                   total("channel.engine_build")),
                 scheduled),
             "us");
  result.Add("scenario_cache.evictions",
             per(static_cast<double>(replay.evictions), n), "count/req");
  result.Add("scenario_cache.response_hit_rate", response_hit_rate, "ratio");
  result.Add("scenario_cache.scenario_hit_rate", scenario_hit_rate, "ratio");
  result.Add("channel.engine_build_us", per(total("channel.engine_build"), builds),
             "us");
  for (const std::string& name : kSchedulers) {
    const std::string span = "sched." + name;
    result.Add(span + "_us",
               per(total(span), static_cast<double>(spans(span))), "us");
  }
  result.Add("batcher.shed", sheds, "count");
  result.Add("batcher.queue_delay_us",
             static_cast<double>(after.queue_delay_ewma_us) /
                 static_cast<double>(std::max<std::size_t>(spec.shards, 1)),
             "us");
  result.Add("shard.frame_scan_us", per(total("shard.frame_scan"), n), "us");
  result.Add("shard.routing_key_us", per(total("shard.routing_key"), n), "us");
  result.Add("shard.pipe_codec_us", per(total("shard.pipe_codec"), n), "us");
  result.Add("sim.simulate_schedule_us", 0.0, "us");
  result.Add("sim.expected_metrics_us", 0.0, "us");
  result.Add("sim.checkpoint_us", 0.0, "us");
  result.Add("transport.unattributed_us",
             1000.0 * p50_ms - untraced_us, "us");
  result.Add("driver.cpu_us_per_req", median(self_per_req), "us");
  result.Add("tracing.overhead_pct",
             100.0 * (Quantile(replay.ratio, 0.5) - 1.0), "%");
  return result;
}

}  // namespace perfbench
