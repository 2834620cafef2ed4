// The serving tier's one front-end: an epoll event loop that routes each
// client frame to a slot and writes the replies back in request order.
// Plain `serve` (num_shards == 0) has one local slot, an in-process
// SchedulingService; `serve --shards N` forks N supervised shard workers.
//
//   clients ──► epoll loop ──► local slot (in-process SchedulingService)
//               (this class) └► consistent-hash ring ──► N shard workers
//                                (RoutingKey affinity)    (forked procs)
//
// The loop is one thread. Its duties:
//
//   * network: edge-triggered accept/read/write on the listener and every
//     client connection. Each connection receives into its FrameScanner,
//     which carves frames in place. Replies re-sequence through a
//     per-connection FIFO of tickets, so each client sees its replies in
//     request order whichever slot or thread finished first.
//   * local slot: the loop runs only SubmitFrame's probe; a hit, a
//     rejection or a shed completes its ticket inline, and a frame that
//     needs a parse is copied to the slot's parse pool. A batched reply
//     is queued by the batcher worker that computed it, which wakes the
//     loop through an eventfd. There is no thread per connection.
//   * shards: each frame's bytes go straight into a ticket's pipe
//     message on its worker's socketpair, routed by RoutingKey over the
//     HashRing. Supervisor::Step() runs on the epoll tick. Worker death
//     fails that shard's in-flight tickets with a retryable error, marks
//     its arc dead (minimal remap — no other shard's keys move), and the
//     respawned worker re-arms the same arc. A SIGHUP rolls one shard at
//     a time with ring-aware draining: the arc goes dead first, in-flight
//     tickets complete on the old worker, then SIGTERM — at every instant
//     N-1 shards serve warm. A client STATS verb fans kStatsQuery out to
//     every live shard and answers with one AccumulateStats'd line; a
//     shard dying mid-fan-out just drops out of the aggregate.
//   * STATS, in either topology, is asked once every earlier reply on
//     its connection is done, so its snapshot counts all of them.
//
// Backpressure: a connection is not read while its unsent reply bytes
// reach kConnOutCapBytes or its FIFO holds kConnFifoCap tickets, so a
// client that pipelines without reading stalls in its own send. Bytes
// queued toward one worker are capped (`shard_pipe_cap_bytes`); past the
// cap new frames for that shard are answered with a retryable error —
// one slow shard degrades its own arc, not the router's memory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/shard/frame_scanner.hpp"
#include "service/shard/hash_ring.hpp"
#include "service/shard/pipe.hpp"
#include "service/supervisor.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::service {

struct ServerOptions {
  /// Non-empty → listen on this Unix-domain socket path (the file is
  /// created on Start and unlinked on shutdown). Empty → TCP.
  std::string unix_socket_path;
  /// TCP bind address; loopback by default (the service is a benchmark
  /// harness, not an internet-facing daemon).
  std::string host = "127.0.0.1";
  /// TCP port; 0 = ephemeral (resolved port available via Port()).
  int port = 0;

  /// Connection guards (the chaos layer's server-side defenses). A frame
  /// accumulating beyond `max_frame_bytes` — including a single line that
  /// long — is answered with a typed protocol error and the connection is
  /// closed; receives are clipped so that no connection buffers more than
  /// `max_frame_bytes + 1` bytes. A connection that has started a frame
  /// but delivers no byte for `read_deadline_seconds` (slow-loris) is
  /// evicted the same way; 0 disables the deadline. Idle connections
  /// *between* frames are never evicted — keepalive is legitimate.
  std::size_t max_frame_bytes = 1 << 20;
  double read_deadline_seconds = 30.0;

  /// Each slot's service: the local slot's, or each forked shard's own.
  ServiceOptions service;
};

}  // namespace fadesched::service

namespace fadesched::service::shard {

enum class RoutingMode {
  kAffinity,    ///< consistent-hash on RoutingKey: the scenario payload
  kRoundRobin,  ///< rotate across live shards (the bench's control arm)
};

struct ShardServerOptions {
  /// Listener + connection guards; `service` inside is each slot's
  /// service config (the local slot and every forked shard build their
  /// own cache/batcher from it).
  ServerOptions server;

  /// 0: one in-process local slot (plain `serve`); N > 0: N forked shard
  /// workers behind the hash ring.
  std::size_t num_shards = 0;
  /// The hash ring's shape: HashRingOptions' defaults.
  static constexpr std::size_t vnodes_per_shard =
      HashRingOptions{}.vnodes_per_shard;
  static constexpr std::uint64_t ring_seed = HashRingOptions{}.seed;
  RoutingMode routing = RoutingMode::kAffinity;

  /// Cap on bytes buffered toward one worker before its arc starts
  /// shedding (see header comment).
  std::size_t shard_pipe_cap_bytes = 4u << 20;

  /// Supervision knobs (num_workers is overwritten with num_shards).
  /// `drain_grace_seconds` also bounds the connection drain of either
  /// topology.
  SupervisorOptions supervisor;
};

class ShardServer {
 public:
  /// A connection is not read while this many reply bytes wait to be
  /// sent to it ...
  static constexpr std::size_t kConnOutCapBytes = std::size_t{64} << 10;
  /// ... or while this many of its tickets wait for a reply or a send.
  static constexpr std::size_t kConnFifoCap = 64;

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
  /// tickets within the supervisor's drain grace, then shut the workers
  /// down, or join the local slot's parse pool and drain its service.
  /// Connections still open when the grace ends are closed, and their
  /// unsent replies are dropped.
  void Serve();

  /// Requests shutdown from any thread (idempotent).
  void Stop();

  /// Supervision report of the last Serve() (for `--status-out`); slot
  /// entries carry shard id, ring arc, and liveness annotations. Empty
  /// for the local slot.
  [[nodiscard]] const SupervisorReport& Report() const { return report_; }

  /// The local slot's service (its metrics and cache); null when sharded.
  [[nodiscard]] SchedulingService* LocalService() {
    return local_ != nullptr ? &local_->service : nullptr;
  }

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
    bool peer_closed = false;         ///< recv saw EOF; frames may remain
    bool closing = false;             ///< no more input: close once fifo
                                      ///< + out drain
    bool paused = false;              ///< at a cap: not read until drained
  };

  struct Ticket {
    std::uint64_t conn_id = 0;
    bool done = false;
    bool is_stats = false;            ///< asked at the FIFO head
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

  /// The in-process slot of num_shards == 0. Its destructor joins the
  /// parse pool and drains the service before it closes the eventfd
  /// their replies write.
  struct LocalSlot {
    explicit LocalSlot(const ShardServerOptions& options);
    ~LocalSlot();

    SchedulingService service;
    int wake_fd = -1;  ///< eventfd the loop watches for `done`
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::string>> done;  ///< by mutex
    /// Parses the frames the loop's probe cannot answer. Reset, which
    /// runs what it holds and joins, before the service drains.
    std::optional<util::ThreadPool> parsers;
  };

  // Event-loop stages.
  void AcceptNewConnections();
  void HandleConnReadable(std::uint64_t conn_id);
  void HandleConnWritable(std::uint64_t conn_id);
  void HandleLocalCompletions();
  /// The local slot's reply to `ticket`: completes it when called on the
  /// loop, else queues the line for HandleLocalCompletions and wakes the
  /// loop.
  [[nodiscard]] Responder LocalReply(std::uint64_t ticket);
  void HandleShardReadable(std::size_t slot);
  void HandleShardWritable(std::size_t slot);
  void HandleTick();

  // Routing and ticket plumbing.
  /// Reads and routes until EAGAIN, EOF, an eviction, or a cap (pauses).
  void ReadConn(Conn& conn);
  [[nodiscard]] static bool AtCap(const Conn& conn);
  [[nodiscard]] std::uint64_t OpenTicket(Conn& conn);
  void RouteFrame(Conn& conn, std::string_view frame);
  void RouteStats(Conn& conn);
  /// A STATS ticket not yet answered nor fanned out.
  [[nodiscard]] static bool StatsUnasked(const Ticket& ticket);
  /// Answers a STATS ticket from the local slot's counters, or fans it
  /// out to the live shards.
  void AskStats(std::uint64_t ticket_id);
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
  // Exactly one of the two topologies: the ring and the supervisor when
  // num_shards > 0, else the local slot.
  std::optional<HashRing> ring_;
  std::optional<Supervisor> supervisor_;
  std::unique_ptr<LocalSlot> local_;
  SupervisorReport report_;
  std::thread::id loop_thread_;  ///< Serve()'s thread

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
