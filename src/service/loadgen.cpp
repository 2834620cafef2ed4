#include "service/loadgen.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <vector>

#include "service/client.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/request.hpp"
#include "testing/fuzzer.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

/// Request i is warm iff the Bresenham accumulator crosses an integer —
/// exactly round(n·hot_fraction) warm requests, spread evenly, and the
/// classification depends only on i (not on which connection draws it).
bool IsWarmIndex(std::size_t i, double hot_fraction) {
  return std::floor(static_cast<double>(i + 1) * hot_fraction) >
         std::floor(static_cast<double>(i) * hot_fraction);
}

struct RequestPlan {
  /// Pre-serialized frames: [0, pool_size) warm pool, then one unique
  /// frame per cold request.
  std::vector<std::string> frames;
  /// Per request index: frame to send and its tier.
  struct Slot {
    std::size_t frame = 0;
    bool cold = false;
  };
  std::vector<Slot> slots;
  std::size_t pool_size = 0;
};

RequestPlan BuildPlan(const LoadgenOptions& options) {
  fadesched::testing::FuzzerOptions fuzz;
  fuzz.min_links = options.links;
  fuzz.max_links = options.links;
  // Keep the pool on the paper's parameter defaults and uniform rates —
  // the loadgen measures the service, not scheduler edge cases.
  fuzz.extreme_params = false;
  fuzz.weighted_rates = false;
  fuzz.with_noise = false;
  fadesched::testing::ScenarioFuzzer fuzzer(options.seed, fuzz);

  RequestPlan plan;
  plan.pool_size = options.pool_size;
  plan.slots.resize(options.num_requests);

  auto serialize = [&](std::size_t case_index, std::string id) {
    SchedulingRequest request;
    request.scenario = fuzzer.Case(case_index);
    request.scheduler = options.scheduler;
    request.deadline_seconds = options.deadline_seconds;
    request.id = std::move(id);
    return FormatRequestFrame(request);
  };

  plan.frames.reserve(options.pool_size);
  for (std::size_t i = 0; i < options.pool_size; ++i) {
    plan.frames.push_back(serialize(i, "r" + std::to_string(i)));
  }

  // Drifting working set: the warm pool is a window that slides one
  // entry every `drift_period` requests. Drift scenarios draw from a
  // fuzzer index range disjoint from both the pool and the cold stream
  // so no scenario is accidentally shared across tiers.
  constexpr std::size_t kDriftCaseBase = 1u << 20;
  std::vector<std::size_t> pool_frames(options.pool_size);
  for (std::size_t k = 0; k < options.pool_size; ++k) pool_frames[k] = k;
  std::size_t drift_cursor = 0, drift_ordinal = 0;

  std::size_t warm_ordinal = 0, cold_ordinal = 0;
  for (std::size_t i = 0; i < options.num_requests; ++i) {
    if (options.drift_period > 0 && i > 0 && i % options.drift_period == 0) {
      plan.frames.push_back(serialize(kDriftCaseBase + drift_ordinal,
                                      "d" + std::to_string(drift_ordinal)));
      pool_frames[drift_cursor] = plan.frames.size() - 1;
      drift_cursor = (drift_cursor + 1) % options.pool_size;
      ++drift_ordinal;
    }
    if (IsWarmIndex(i, options.hot_fraction)) {
      plan.slots[i] = {pool_frames[warm_ordinal % options.pool_size],
                       /*cold=*/false};
      ++warm_ordinal;
    } else {
      // Cold = a scenario no other request shares: fuzzer indices past
      // the pool are never replayed, so the server cannot have it cached.
      plan.frames.push_back(serialize(options.pool_size + cold_ordinal,
                                      "c" + std::to_string(cold_ordinal)));
      plan.slots[i] = {plan.frames.size() - 1, /*cold=*/true};
      ++cold_ordinal;
    }
  }
  return plan;
}

/// The harness: one thread, `connections` sockets, one epoll, at most
/// one outstanding request per connection.
///
/// Open-loop releases follow a global start + i·Δ schedule; a released
/// request that finds every connection busy waits in a client-side ready
/// queue — its corrected latency (reply − intended release) keeps
/// charging while it queues, which is the coordinated-omission story the
/// report fields exist to tell. Closed loop assigns the next request the
/// instant a connection goes idle (intended == send, corrected == raw).
///
/// Accounting: one outcome per request, transport failure counted once
/// per dead connection (its in-flight request is abandoned; siblings keep
/// draining the plan).
LoadgenReport RunPlan(const LoadgenOptions& options, const RequestPlan& plan) {
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::size_t index = 0;
    Clock::time_point intended{};
    Clock::time_point sent{};
  };
  struct MuxConn {
    std::unique_ptr<Client> client;
    int fd = -1;
    std::string in;    ///< bytes read, not yet a full line
    std::string out;   ///< bytes not yet accepted by the kernel
    bool want_write = false;
    bool busy = false;
    Pending current;
    Clock::time_point io_deadline = Clock::time_point::max();
  };

  const std::size_t connections =
      options.connections > 0 ? options.connections : 1;
  const bool open_loop = options.rate_per_sec > 0.0;
  const double interarrival = open_loop ? 1.0 / options.rate_per_sec : 0.0;

  std::size_t ok = 0, shed = 0, timed_out = 0, errors = 0, transport = 0,
              mismatches = 0;
  std::size_t warm_ok = 0, cold_ok = 0, warm_shed = 0, cold_shed = 0;
  LatencyHistogram warm_latency, cold_latency;
  LatencyHistogram warm_corrected, cold_corrected;
  std::vector<std::string> expected(plan.frames.size());

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    throw util::TransientError("loadgen epoll_create1 failed");
  }

  std::vector<MuxConn> conns;
  conns.reserve(connections);
  std::size_t live = 0;
  for (std::size_t c = 0; c < connections; ++c) {
    MuxConn conn;
    conn.client = std::make_unique<Client>();
    try {
      if (!options.unix_socket_path.empty()) {
        conn.client->ConnectUnix(options.unix_socket_path);
      } else {
        conn.client->ConnectTcp(options.host, options.port);
      }
    } catch (const std::exception&) {
      continue;  // counted below via live == 0 / partial fleet
    }
    conn.fd = conn.client->NativeHandle();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns.size();
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev) < 0) {
      continue;
    }
    conns.push_back(std::move(conn));
    ++live;
  }
  if (live == 0) {
    ::close(epoll_fd);
    throw util::TransientError("loadgen could not connect to the endpoint");
  }

  const auto start = Clock::now();
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) * interarrival));
  };

  std::deque<Pending> ready;
  std::size_t next_release = 0;
  std::size_t settled = 0;  ///< accounted (ok/shed/timeout/error) + abandoned

  const auto set_interest = [&](std::size_t idx) {
    MuxConn& conn = conns[idx];
    const bool want = !conn.out.empty();
    if (want == conn.want_write) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = idx;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  // A dead connection abandons its in-flight request: one transport
  // failure, the request settles without an outcome, siblings keep
  // draining the plan.
  const auto kill_conn = [&](std::size_t idx) {
    MuxConn& conn = conns[idx];
    if (conn.fd < 0) return;
    ++transport;
    if (conn.busy) {
      conn.busy = false;
      ++settled;
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    conn.client->Close();
    conn.fd = -1;
    --live;
  };

  /// Returns false when the connection died mid-flush.
  const auto flush_out = [&](std::size_t idx) {
    MuxConn& conn = conns[idx];
    std::size_t written = 0;
    while (written < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + written,
                               conn.out.size() - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn.out.clear();
        kill_conn(idx);
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    conn.out.erase(0, written);
    set_interest(idx);
    return true;
  };

  const auto assign = [&](std::size_t idx, Pending pending) {
    MuxConn& conn = conns[idx];
    const auto now = Clock::now();
    pending.sent = now;
    if (!open_loop) pending.intended = now;
    conn.current = pending;
    conn.busy = true;
    const double budget = conn.client->Options().io_timeout_seconds;
    conn.io_deadline =
        budget > 0.0 ? now + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(budget))
                     : Clock::time_point::max();
    conn.out += plan.frames[plan.slots[pending.index].frame];
    flush_out(idx);
  };

  const auto settle_line = [&](std::size_t idx, const std::string& line) {
    MuxConn& conn = conns[idx];
    if (!conn.busy) return;  // stray line; the server never volunteers one
    const Pending pending = conn.current;
    conn.busy = false;
    SchedulingResponse response;
    try {
      response = ParseResponseLine(line);
    } catch (const std::exception&) {
      ++errors;
      ++settled;
      return;
    }
    const RequestPlan::Slot slot = plan.slots[pending.index];
    switch (response.status) {
      case ResponseStatus::kOk: {
        ++ok;
        const auto reply_at = Clock::now();
        const double seconds =
            std::chrono::duration<double>(reply_at - pending.sent)
                .count();
        const double corrected =
            std::chrono::duration<double>(reply_at - pending.intended).count();
        if (slot.cold) {
          ++cold_ok;
          cold_latency.Record(seconds);
          cold_corrected.Record(corrected);
        } else {
          ++warm_ok;
          warm_latency.Record(seconds);
          warm_corrected.Record(corrected);
          std::string& first = expected[slot.frame];
          if (first.empty()) {
            first = line;
          } else if (first != line) {
            ++mismatches;
          }
        }
        break;
      }
      case ResponseStatus::kShed:
        ++shed;
        (slot.cold ? cold_shed : warm_shed) += 1;
        break;
      case ResponseStatus::kTimeout:
        ++timed_out;
        break;
      case ResponseStatus::kError:
        ++errors;
        break;
    }
    ++settled;
  };

  const auto drain_readable = [&](std::size_t idx) {
    MuxConn& conn = conns[idx];
    char chunk[16384];
    for (;;) {
      if (conn.fd < 0) return;
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        kill_conn(idx);
        return;
      }
      if (n == 0) {
        kill_conn(idx);
        return;
      }
      conn.in.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
    }
    std::size_t line_end;
    while ((line_end = conn.in.find('\n')) != std::string::npos) {
      std::string line = conn.in.substr(0, line_end);
      conn.in.erase(0, line_end + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      settle_line(idx, line);
    }
  };

  std::vector<epoll_event> events(64);
  while (settled < options.num_requests && live > 0) {
    const auto now = Clock::now();

    // Stage 1: move everything due into the ready queue.
    if (open_loop) {
      while (next_release < options.num_requests &&
             due_at(next_release) <= now) {
        Pending pending;
        pending.index = next_release;
        pending.intended = due_at(next_release);
        ready.push_back(pending);
        ++next_release;
      }
    } else {
      std::size_t idle = 0;
      for (const MuxConn& conn : conns) {
        if (conn.fd >= 0 && !conn.busy) ++idle;
      }
      while (next_release < options.num_requests && ready.size() < idle) {
        Pending pending;
        pending.index = next_release;
        ready.push_back(pending);
        ++next_release;
      }
    }

    // Stage 2: hand ready requests to idle connections.
    for (std::size_t idx = 0; idx < conns.size() && !ready.empty(); ++idx) {
      MuxConn& conn = conns[idx];
      if (conn.fd < 0 || conn.busy || !conn.out.empty()) continue;
      Pending pending = std::move(ready.front());
      ready.pop_front();
      assign(idx, pending);
    }

    // Released work that no live connection can ever take settles as
    // abandoned, otherwise the loop would spin forever on a dead fleet.
    if (live == 0) break;

    // Stage 3: wait for readiness, the next scheduled release, or the
    // supervision tick (io deadlines).
    int timeout_ms = 20;
    const auto clamp_to = [&](Clock::time_point when) {
      const auto delta =
          std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
              .count();
      const int ms = delta < 0 ? 0 : static_cast<int>(delta) + 1;
      if (ms < timeout_ms) timeout_ms = ms;
    };
    if (open_loop && next_release < options.num_requests) {
      clamp_to(due_at(next_release));
    }
    if (!ready.empty()) timeout_ms = 0;

    const int n_ready =
        ::epoll_wait(epoll_fd, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n_ready < 0 && errno != EINTR) break;
    for (int e = 0; e < (n_ready > 0 ? n_ready : 0); ++e) {
      const std::size_t idx = static_cast<std::size_t>(events[e].data.u64);
      if (idx >= conns.size() || conns[idx].fd < 0) continue;
      if (events[e].events & (EPOLLERR | EPOLLHUP)) {
        // Let recv observe the error/EOF so half-delivered lines settle.
        drain_readable(idx);
        if (conns[idx].fd >= 0 && conns[idx].in.empty()) kill_conn(idx);
        continue;
      }
      if (events[e].events & EPOLLIN) drain_readable(idx);
      if (conns[idx].fd >= 0 && (events[e].events & EPOLLOUT)) {
        flush_out(idx);
      }
    }

    // Tick: enforce the Client's per-request I/O budget.
    const auto tick = Clock::now();
    for (std::size_t idx = 0; idx < conns.size(); ++idx) {
      MuxConn& conn = conns[idx];
      if (conn.fd >= 0 && conn.busy && tick > conn.io_deadline) {
        kill_conn(idx);
      }
    }
  }

  for (std::size_t idx = 0; idx < conns.size(); ++idx) {
    if (conns[idx].fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conns[idx].fd, nullptr);
      conns[idx].client->Close();
      conns[idx].fd = -1;
    }
  }
  ::close(epoll_fd);

  LoadgenReport report;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.ok = ok;
  report.shed = shed;
  report.timed_out = timed_out;
  report.errors = errors;
  report.transport_failures = transport;
  report.determinism_mismatches = mismatches;
  report.sent = ok + shed + timed_out + errors;
  report.throughput_rps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.sent) / report.wall_seconds
          : 0.0;
  report.warm_ok = warm_ok;
  report.cold_ok = cold_ok;
  report.warm_shed = warm_shed;
  report.cold_shed = cold_shed;
  report.warm_p50_ms = warm_latency.Percentile(0.50) * 1e3;
  report.warm_p95_ms = warm_latency.Percentile(0.95) * 1e3;
  report.warm_p99_ms = warm_latency.Percentile(0.99) * 1e3;
  report.cold_p50_ms = cold_latency.Percentile(0.50) * 1e3;
  report.cold_p95_ms = cold_latency.Percentile(0.95) * 1e3;
  report.cold_p99_ms = cold_latency.Percentile(0.99) * 1e3;
  report.warm_corrected_p50_ms = warm_corrected.Percentile(0.50) * 1e3;
  report.warm_corrected_p95_ms = warm_corrected.Percentile(0.95) * 1e3;
  report.warm_corrected_p99_ms = warm_corrected.Percentile(0.99) * 1e3;
  report.cold_corrected_p50_ms = cold_corrected.Percentile(0.50) * 1e3;
  report.cold_corrected_p95_ms = cold_corrected.Percentile(0.95) * 1e3;
  report.cold_corrected_p99_ms = cold_corrected.Percentile(0.99) * 1e3;
  return report;
}

}  // namespace

std::string LoadgenReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"sent\": " << sent << ",\n";
  out << "  \"ok\": " << ok << ",\n";
  out << "  \"shed\": " << shed << ",\n";
  out << "  \"timed_out\": " << timed_out << ",\n";
  out << "  \"errors\": " << errors << ",\n";
  out << "  \"transport_failures\": " << transport_failures << ",\n";
  out << "  \"determinism_mismatches\": " << determinism_mismatches << ",\n";
  out.precision(6);
  out << std::fixed;
  out << "  \"warm\": {\"ok\": " << warm_ok << ", \"shed\": " << warm_shed
      << ", \"p50_ms\": " << warm_p50_ms << ", \"p95_ms\": " << warm_p95_ms
      << ", \"p99_ms\": " << warm_p99_ms
      << ", \"corrected_p50_ms\": " << warm_corrected_p50_ms
      << ", \"corrected_p95_ms\": " << warm_corrected_p95_ms
      << ", \"corrected_p99_ms\": " << warm_corrected_p99_ms << "},\n";
  out << "  \"cold\": {\"ok\": " << cold_ok << ", \"shed\": " << cold_shed
      << ", \"p50_ms\": " << cold_p50_ms << ", \"p95_ms\": " << cold_p95_ms
      << ", \"p99_ms\": " << cold_p99_ms
      << ", \"corrected_p50_ms\": " << cold_corrected_p50_ms
      << ", \"corrected_p95_ms\": " << cold_corrected_p95_ms
      << ", \"corrected_p99_ms\": " << cold_corrected_p99_ms << "},\n";
  out << "  \"wall_seconds\": " << wall_seconds << ",\n";
  out << "  \"throughput_rps\": " << throughput_rps << "\n";
  out << "}\n";
  return out.str();
}

LoadgenReport RunLoadgen(const LoadgenOptions& options) {
  FS_CHECK_MSG(options.num_requests > 0, "num_requests must be positive");
  FS_CHECK_MSG(options.pool_size > 0, "pool_size must be positive");
  FS_CHECK_MSG(options.hot_fraction >= 0.0 && options.hot_fraction <= 1.0,
               "hot_fraction must be within [0, 1]");
  return RunPlan(options, BuildPlan(options));
}

}  // namespace fadesched::service
