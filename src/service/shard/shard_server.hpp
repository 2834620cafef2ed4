// The sharded serving tier's front-end: one epoll event loop that is
// simultaneously the client-facing router and the worker supervisor.
//
//   clients ──► epoll router ──► consistent-hash ring ──► N shard workers
//               (this class)       (RoutingKey affinity)   (forked procs)
//
// One loop, three duties, no threads:
//
//   * network: edge-triggered accept/read/write on the listener, every
//     client connection, and every worker socketpair. Each connection
//     receives into its FrameScanner, which carves frames in place; each
//     frame's bytes go straight into a ticket's pipe message, routed by
//     fingerprint over the HashRing; worker
//     responses re-sequence through a per-connection FIFO so each client
//     sees its replies in request order even when shards complete out of
//     order.
//   * supervision: Supervisor::Step() runs on the epoll tick. Worker
//     death fails that shard's in-flight tickets with a retryable error,
//     marks its arc dead (minimal remap — no other shard's keys move),
//     and the respawned worker re-arms the same arc. A SIGHUP rolls one
//     shard at a time with ring-aware draining: the arc goes dead first,
//     in-flight tickets complete on the old worker, then SIGTERM — at
//     every instant N-1 shards serve warm.
//   * aggregation: a client STATS verb fans kStatsQuery out to every
//     live shard and answers with one AccumulateStats'd line. A shard
//     dying mid-fan-out just drops out of the aggregate.
//
// Backpressure: bytes queued toward one worker are capped
// (`shard_pipe_cap_bytes`); past the cap new frames for that shard are
// answered with a retryable error instead of buffering unboundedly —
// one slow shard degrades its own arc, not the router's memory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard/frame_scanner.hpp"
#include "service/shard/hash_ring.hpp"
#include "service/shard/pipe.hpp"
#include "service/supervisor.hpp"
#include "util/error.hpp"

namespace fadesched::service::shard {

enum class RoutingMode {
  kAffinity,    ///< consistent-hash on the request fingerprint
  kRoundRobin,  ///< rotate across live shards (the bench's control arm)
};

struct ShardServerOptions {
  /// Listener + connection guards; `service` inside is the per-worker
  /// service config (each forked shard builds its own cache/batcher from
  /// it).
  ServerOptions server;

  std::size_t num_shards = 2;
  std::size_t vnodes_per_shard = 128;
  std::uint64_t ring_seed = 0x5eedU;
  RoutingMode routing = RoutingMode::kAffinity;
  std::size_t completion_threads_per_shard = 2;

  /// Cap on bytes buffered toward one worker before its arc starts
  /// shedding (see header comment).
  std::size_t shard_pipe_cap_bytes = 4u << 20;

  /// Supervision knobs (num_workers is overwritten with num_shards).
  SupervisorOptions supervisor;
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds + listens; throws util::HarnessError on socket failure.
  void Start();

  /// Resolved TCP port (after Start; 0 for Unix-domain sockets).
  [[nodiscard]] int Port() const { return port_; }

  /// Runs the event loop until Stop() or a guarded SIGTERM/SIGINT (a
  /// ScopedSignalGuard is installed for the duration, so forked workers
  /// inherit the handler), then drains: stop accepting, finish in-flight
  /// tickets within the supervisor's drain grace, shut workers down.
  void Serve();

  /// Requests shutdown from any thread (idempotent).
  void Stop();

  /// Supervision report of the last Serve() (for `--status-out`); slot
  /// entries carry shard id, ring arc, and liveness annotations.
  [[nodiscard]] const SupervisorReport& Report() const { return report_; }

  /// Live worker pid for a shard slot (-1 while down) — lets tests and
  /// kill drills aim a signal at one specific shard. Safe to call from
  /// any thread while Serve() runs (atomic mirror of the slot state).
  [[nodiscard]] pid_t WorkerPid(std::size_t slot) const {
    return slot < live_pids_.size()
               ? live_pids_[slot].load(std::memory_order_relaxed)
               : -1;
  }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameScanner scanner;
    std::string out;                  ///< bytes pending toward the client
    std::deque<std::uint64_t> fifo;   ///< tickets in request order
    bool peer_closed = false;         ///< read side saw EOF
    bool evict = false;               ///< close once fifo + out drain
  };

  struct Ticket {
    std::uint64_t conn_id = 0;
    bool done = false;
    bool is_stats = false;
    std::size_t stats_waiting = 0;    ///< outstanding kStatsReply count
    StatsSnapshot stats_agg;
    std::string response;             ///< response line, no newline
  };

  struct ShardSlot {
    int router_fd = -1;   ///< our end of the socketpair (-1 while down)
    int worker_fd = -1;   ///< child's end, alive only across the fork
    std::string out;      ///< bytes pending toward the worker
    PipeDecoder decoder;
    /// Tickets awaiting replies. A set, not a vector: worker completion
    /// threads reply out of order, and at the pipe cap this can hold
    /// tens of thousands of entries — per-reply removal must be O(1).
    std::unordered_set<std::uint64_t> in_flight;
  };

  // Event-loop stages.
  void AcceptNewConnections();
  void HandleConnReadable(std::uint64_t conn_id);
  void HandleConnWritable(std::uint64_t conn_id);
  void HandleShardReadable(std::size_t slot);
  void HandleShardWritable(std::size_t slot);
  void HandleTick();

  // Routing and ticket plumbing.
  void RouteFrame(Conn& conn, std::string_view frame);
  void RouteStats(Conn& conn);
  void FailTicket(std::uint64_t ticket_id, const std::string& message);
  void SyntheticError(Conn& conn, util::ErrorKind kind,
                      const std::string& message);
  void CompleteTicket(std::uint64_t ticket_id, std::string response_line);
  void DrainPendingFlushes();
  void FlushConn(Conn& conn);
  void CloseConn(std::uint64_t conn_id);
  void FlushShard(std::size_t slot);
  [[nodiscard]] std::size_t PickShard(std::string_view frame);

  // Supervision hooks (run on this loop via Supervisor::Step()).
  void OnPrepareSpawn(std::size_t slot);
  void OnWorkerSpawned(std::size_t slot, pid_t pid);
  void OnWorkerDown(std::size_t slot, const std::string& reason);
  [[nodiscard]] std::string SlotAnnotation(std::size_t slot) const;
  void AdvanceRoll();
  /// In the forked worker: closes every fd but stdio and the slot's pipe
  /// end, which it moves to fd 3, and returns the pipe's fd (-1 if the
  /// slot has none).
  [[nodiscard]] int CloseInheritedFdsInChild(std::size_t slot) const;

  void UpdateEpollInterest(int fd, std::uint64_t tag, bool want_write);
  [[nodiscard]] bool StopRequested() const;

  ShardServerOptions options_;
  HashRing ring_;
  Supervisor supervisor_;
  SupervisorReport report_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::vector<ShardSlot> slots_;
  /// Cross-thread-readable mirror of each slot's worker pid (WorkerPid).
  std::vector<std::atomic<pid_t>> live_pids_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::unordered_map<std::uint64_t, Ticket> tickets_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_ticket_id_ = 1;
  std::size_t round_robin_next_ = 0;

  /// Connections with a newly completed ticket, awaiting FlushConn.
  /// CompleteTicket only enqueues here: flushing can close the conn and
  /// erase it from conns_, which must never happen synchronously under a
  /// caller still holding a Conn& (e.g. HandleConnReadable's drain loop).
  /// Drained at the end of each event-loop stage (DrainPendingFlushes).
  std::unordered_set<std::uint64_t> flush_pending_;

  /// Listener hit a transient accept error (EMFILE/ENFILE/...). The
  /// edge-triggered listener won't re-fire for connections already
  /// queued, so HandleTick retries the accept sweep instead of stalling.
  bool accept_retry_ = false;

  /// SIGHUP roll state: slots still to roll; the head is in one of two
  /// phases — arc dead + draining its in-flight, or waiting for the
  /// respawn. Empty = no roll in progress.
  std::deque<std::size_t> roll_queue_;
  bool roll_waiting_respawn_ = false;
};

}  // namespace fadesched::service::shard
