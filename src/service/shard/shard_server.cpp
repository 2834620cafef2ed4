#include "service/shard/shard_server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <utility>

#include "service/shard/shard_worker.hpp"
#include "util/check.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service::shard {

namespace {

constexpr int kTickMs = 20;

// epoll_event.data.u64 tag: top byte is the fd's role, the rest the id.
constexpr std::uint64_t kTagListener = 1;
constexpr std::uint64_t kTagConn = 2;
constexpr std::uint64_t kTagShard = 3;

std::uint64_t MakeTag(std::uint64_t role, std::uint64_t id) {
  return (role << 56) | (id & ((1ULL << 56) - 1));
}

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw util::TransientError(what + ": " + std::strerror(errno));
}

void SetNonBlockingFd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

/// Non-blocking write of as much of `data` as the socket takes; consumed
/// bytes are erased. Returns false when the peer is gone (EPIPE etc.).
bool WriteSome(int fd, std::string& data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    data.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)),
      ring_(HashRingOptions{options_.num_shards, options_.vnodes_per_shard,
                            options_.ring_seed}),
      supervisor_(
          // Worker main runs in the forked child: shed every inherited
          // router fd, then serve this slot's pipe until EOF/SIGTERM.
          [this](std::size_t slot, std::size_t spawn_ordinal) {
            ShardWorkerOptions worker;
            worker.pipe_fd = CloseInheritedFdsInChild(slot);
            worker.completion_threads = options_.completion_threads_per_shard;
            worker.shard_id = slot;
            worker.spawn_ordinal = spawn_ordinal;
            worker.service = options_.server.service;
            return RunShardWorker(worker);
          },
          [this] {
            SupervisorOptions sup = options_.supervisor;
            sup.num_workers = options_.num_shards;
            sup.hooks.prepare_spawn = [this](std::size_t slot) {
              OnPrepareSpawn(slot);
            };
            sup.hooks.worker_spawned = [this](std::size_t slot, pid_t pid) {
              OnWorkerSpawned(slot, pid);
            };
            sup.hooks.worker_down = [this](std::size_t slot,
                                           const std::string& reason) {
              OnWorkerDown(slot, reason);
            };
            sup.hooks.slot_annotation = [this](std::size_t slot) {
              return SlotAnnotation(slot);
            };
            return sup;
          }()),
      live_pids_(options_.num_shards) {
  slots_.resize(options_.num_shards);
  for (auto& pid : live_pids_) pid.store(-1, std::memory_order_relaxed);
}

ShardServer::~ShardServer() {
  Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.server.unix_socket_path.empty()) {
      ::unlink(options_.server.unix_socket_path.c_str());
    }
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  for (ShardSlot& slot : slots_) {
    if (slot.router_fd >= 0) ::close(slot.router_fd);
    if (slot.worker_fd >= 0) ::close(slot.worker_fd);
  }
}

void ShardServer::Start() {
  listen_fd_ = BindListenSocket(options_.server, &port_);
}

void ShardServer::Stop() { stop_.store(true, std::memory_order_relaxed); }

bool ShardServer::StopRequested() const {
  return stop_.load(std::memory_order_relaxed) || util::ShutdownRequested();
}

void ShardServer::UpdateEpollInterest(int fd, std::uint64_t tag,
                                      bool want_write) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET | (want_write ? EPOLLOUT : 0u);
  event.data.u64 = tag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

int ShardServer::CloseInheritedFdsInChild(std::size_t slot) const {
  // Forked child: the worker keeps stdio and its own pipe end, moved to
  // fd 3, and nothing else. Every other fd goes, whoever opened it: the
  // router's listener, epoll, connections and pipe ends, and anything the
  // embedding process held, such as its own clients' sockets. A worker
  // holding a copy of a client socket would keep it open after the
  // client closes, so the router would never see that EOF.
  constexpr int kPipeFd = 3;
  const int inherited = slots_[slot].worker_fd;
  const int pipe_fd = inherited < 0 || inherited == kPipeFd
                          ? inherited
                          : ::dup2(inherited, kPipeFd);
  ::closefrom(pipe_fd == kPipeFd ? kPipeFd + 1 : kPipeFd);
  return pipe_fd;
}

void ShardServer::OnPrepareSpawn(std::size_t slot_index) {
  ShardSlot& slot = slots_[slot_index];
  // A failed fork can leave a stale pair behind; replace it.
  if (slot.worker_fd >= 0) {
    ::close(slot.worker_fd);
    slot.worker_fd = -1;
  }
  if (slot.router_fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, slot.router_fd, nullptr);
    ::close(slot.router_fd);
    slot.router_fd = -1;
  }
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
    // The fork that follows will fail too under fd pressure; leave the
    // slot pipeless — the supervisor's backoff retries the whole spawn.
    return;
  }
  slot.router_fd = sv[0];
  slot.worker_fd = sv[1];
  SetNonBlockingFd(slot.router_fd);
}

void ShardServer::OnWorkerSpawned(std::size_t slot_index, pid_t pid) {
  live_pids_[slot_index].store(pid, std::memory_order_relaxed);
  ShardSlot& slot = slots_[slot_index];
  if (slot.worker_fd >= 0) {
    ::close(slot.worker_fd);  // parent keeps only the router end
    slot.worker_fd = -1;
  }
  if (slot.router_fd < 0) return;  // socketpair() failed in prepare_spawn
  slot.out.clear();
  slot.decoder = PipeDecoder{};
  FS_CHECK_MSG(slot.in_flight.empty(),
               "respawned shard slot still holds in-flight tickets");
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET;
  event.data.u64 = MakeTag(kTagShard, slot_index);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, slot.router_fd, &event);
  // The fresh worker re-arms the exact arc its predecessor owned —
  // minimal remap is "the lost arc comes back", not "reshuffle".
  ring_.SetLive(slot_index, true);
  if (roll_waiting_respawn_ && !roll_queue_.empty() &&
      roll_queue_.front() == slot_index) {
    roll_queue_.pop_front();
    roll_waiting_respawn_ = false;
  }
}

void ShardServer::OnWorkerDown(std::size_t slot_index,
                               const std::string& reason) {
  live_pids_[slot_index].store(-1, std::memory_order_relaxed);
  ShardSlot& slot = slots_[slot_index];
  ring_.SetLive(slot_index, false);
  if (slot.router_fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, slot.router_fd, nullptr);
    ::close(slot.router_fd);
    slot.router_fd = -1;
  }
  slot.out.clear();
  slot.decoder = PipeDecoder{};
  // Fail what the dead worker still owed. The error is kTransient: the
  // work was lost, not wrong — an idempotent re-send lands on a live
  // arc. A mid-fan-out STATS ticket just loses this shard's contribution.
  std::unordered_set<std::uint64_t> owed;
  owed.swap(slot.in_flight);
  for (const std::uint64_t ticket_id : owed) {
    auto it = tickets_.find(ticket_id);
    if (it == tickets_.end() || it->second.done) continue;
    if (it->second.is_stats) {
      if (it->second.stats_waiting > 0 && --it->second.stats_waiting == 0) {
        CompleteTicket(ticket_id, FormatStatsLine(it->second.stats_agg));
      }
      continue;
    }
    FailTicket(ticket_id,
               "shard " + std::to_string(slot_index) + " worker lost (" +
                   reason + ") before replying — retry");
  }
}

std::string ShardServer::SlotAnnotation(std::size_t slot) const {
  char arc_buf[32];
  std::snprintf(arc_buf, sizeof(arc_buf), "%.4f", ring_.ArcShare(slot));
  std::string out = "\"shard_id\": " + std::to_string(slot) +
                    ", \"ring_arc\": " + arc_buf + ", \"ring_live\": " +
                    (ring_.Live(slot) ? "true" : "false");
  return out;
}

std::size_t ShardServer::PickShard(std::string_view frame) {
  if (options_.routing == RoutingMode::kAffinity) {
    return ring_.ShardFor(RoutingKey(frame));
  }
  // Round-robin control arm: rotate over live slots, affinity-blind.
  for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
    const std::size_t slot =
        (round_robin_next_ + probe) % slots_.size();
    if (ring_.Live(slot)) {
      round_robin_next_ = (slot + 1) % slots_.size();
      return slot;
    }
  }
  return slots_.size();
}

void ShardServer::FailTicket(std::uint64_t ticket_id,
                             const std::string& message) {
  CompleteTicket(ticket_id,
                 FormatErrorLine(util::ErrorKind::kTransient, message));
}

void ShardServer::SyntheticError(Conn& conn, util::ErrorKind kind,
                                 const std::string& message) {
  const std::uint64_t ticket_id = next_ticket_id_++;
  Ticket ticket;
  ticket.conn_id = conn.id;
  ticket.done = true;
  ticket.response = FormatErrorLine(kind, message);
  tickets_.emplace(ticket_id, std::move(ticket));
  conn.fifo.push_back(ticket_id);
}

void ShardServer::CompleteTicket(std::uint64_t ticket_id,
                                 std::string response_line) {
  auto it = tickets_.find(ticket_id);
  if (it == tickets_.end()) return;
  it->second.done = true;
  it->second.response = std::move(response_line);
  auto conn_it = conns_.find(it->second.conn_id);
  if (conn_it == conns_.end()) {
    tickets_.erase(it);  // client vanished first; drop the orphan
    return;
  }
  // Defer the flush: FlushConn can CloseConn (a failed write to a gone
  // peer), which erases the Conn from conns_ — lethal to any caller up
  // the stack still holding a Conn& (RouteFrame/RouteStats can complete
  // synchronously from inside HandleConnReadable's drain loop). Every
  // event-loop stage drains this queue once references are dropped.
  flush_pending_.insert(it->second.conn_id);
}

void ShardServer::DrainPendingFlushes() {
  while (!flush_pending_.empty()) {
    std::unordered_set<std::uint64_t> batch;
    batch.swap(flush_pending_);
    for (const std::uint64_t conn_id : batch) {
      auto it = conns_.find(conn_id);
      if (it != conns_.end()) FlushConn(it->second);
    }
  }
}

void ShardServer::FlushConn(Conn& conn) {
  // Re-sequencing point: only the done head-run of the FIFO may leave —
  // a later ticket finishing first waits for its elders, which is what
  // keeps per-connection response order identical to request order no
  // matter which shards answered.
  while (!conn.fifo.empty()) {
    auto it = tickets_.find(conn.fifo.front());
    if (it == tickets_.end()) {
      conn.fifo.pop_front();  // dropped ticket (shouldn't happen live)
      continue;
    }
    if (!it->second.done) break;
    conn.out += it->second.response;
    conn.out += '\n';
    tickets_.erase(it);
    conn.fifo.pop_front();
  }
  bool alive = true;
  if (!conn.out.empty()) alive = WriteSome(conn.fd, conn.out);
  if (!alive) {
    CloseConn(conn.id);
    return;
  }
  if ((conn.evict || conn.peer_closed) && conn.fifo.empty() &&
      conn.out.empty()) {
    CloseConn(conn.id);
    return;
  }
  UpdateEpollInterest(conn.fd, MakeTag(kTagConn, conn.id), !conn.out.empty());
}

void ShardServer::CloseConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Orphan this connection's tickets: ones already answered die here;
  // ones still on a shard die when the reply (or the worker) comes back.
  for (const std::uint64_t ticket_id : it->second.fifo) {
    auto ticket_it = tickets_.find(ticket_id);
    if (ticket_it != tickets_.end() && ticket_it->second.done) {
      tickets_.erase(ticket_it);
    } else if (ticket_it != tickets_.end()) {
      ticket_it->second.conn_id = 0;  // reply path drops it on arrival
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
}

void ShardServer::FlushShard(std::size_t slot_index) {
  ShardSlot& slot = slots_[slot_index];
  if (slot.router_fd < 0) return;
  if (!slot.out.empty() && !WriteSome(slot.router_fd, slot.out)) {
    // Worker end gone mid-write: the reap path (next Step) classifies
    // the death and fails the in-flight tickets; nothing to do here.
    return;
  }
  UpdateEpollInterest(slot.router_fd, MakeTag(kTagShard, slot_index),
                      !slot.out.empty());
}

void ShardServer::RouteFrame(Conn& conn, std::string_view frame) {
  const std::uint64_t ticket_id = next_ticket_id_++;
  Ticket ticket;
  ticket.conn_id = conn.id;
  tickets_.emplace(ticket_id, std::move(ticket));
  conn.fifo.push_back(ticket_id);

  const std::size_t slot_index = PickShard(frame);
  if (slot_index >= slots_.size() || slots_[slot_index].router_fd < 0) {
    FailTicket(ticket_id, "no live shard for this request — retry");
    return;
  }
  ShardSlot& slot = slots_[slot_index];
  if (slot.out.size() > options_.shard_pipe_cap_bytes) {
    FailTicket(ticket_id,
               "shard " + std::to_string(slot_index) +
                   " backpressure: pipe buffer full — retry");
    return;
  }
  AppendPipeMsg(slot.out, PipeMsgKind::kRequest, ticket_id, frame);
  slot.in_flight.insert(ticket_id);
  FlushShard(slot_index);
}

void ShardServer::RouteStats(Conn& conn) {
  const std::uint64_t ticket_id = next_ticket_id_++;
  Ticket ticket;
  ticket.conn_id = conn.id;
  ticket.is_stats = true;
  conn.fifo.push_back(ticket_id);

  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Same backpressure contract as RouteFrame: a stalled worker's pipe
    // must not grow past the cap. Its snapshot drops out of the
    // aggregate, exactly as if the shard died mid-fan-out.
    if (slots_[i].router_fd >= 0 && supervisor_.SlotPid(i) > 0 &&
        slots_[i].out.size() <= options_.shard_pipe_cap_bytes) {
      targets.push_back(i);
    }
  }
  ticket.stats_waiting = targets.size();
  auto [it, inserted] = tickets_.emplace(ticket_id, std::move(ticket));
  (void)inserted;
  if (targets.empty()) {
    // Nobody to ask: answer with a zero snapshot rather than hang.
    CompleteTicket(ticket_id, FormatStatsLine(StatsSnapshot{}));
    return;
  }
  for (const std::size_t slot_index : targets) {
    AppendPipeMsg(slots_[slot_index].out, PipeMsgKind::kStatsQuery, ticket_id,
                  {});
    slots_[slot_index].in_flight.insert(ticket_id);
    FlushShard(slot_index);
  }
}

void ShardServer::AcceptNewConnections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // EMFILE/ENFILE/ENOBUFS/...: the backlog is NOT drained, and the
        // edge-triggered listener only re-fires on a brand-new SYN — the
        // queued connections would stall forever. Retry on the next tick.
        accept_retry_ = true;
      }
      return;
    }
    SetNonBlockingFd(fd);
    const std::uint64_t conn_id = next_conn_id_++;
    Conn conn;
    conn.fd = fd;
    conn.id = conn_id;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLET;
    event.data.u64 = MakeTag(kTagConn, conn_id);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    conns_.emplace(conn_id, std::move(conn));
  }
}

void ShardServer::HandleConnReadable(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  // Input after eviction is ignored, and after EOF there is none: a
  // readable edge then (EPOLLOUT's, say) must not report EOF again.
  if (conn.evict || conn.peer_closed) return;

  // Edge-triggered: read until EAGAIN, carving after each receive so the
  // window's clip at the frame cap counts only the pending frame, and
  // complete frames pipelined behind it never stall the connection.
  for (;;) {
    const std::span<char> window =
        conn.scanner.ReceiveWindow(options_.server.max_frame_bytes);
    const ssize_t n = ::recv(conn.fd, window.data(), window.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.peer_closed = true;  // hard error: treat as gone
      break;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    conn.scanner.Received(static_cast<std::size_t>(n));
    while (const std::optional<CarvedFrame> event = conn.scanner.Carve()) {
      if (event->kind == CarvedFrame::Kind::kStats) {
        RouteStats(conn);
      } else {
        RouteFrame(conn, event->frame);
      }
    }
    // Max-frame guard, the thread-per-connection server's contract:
    // reject at max_frame_bytes + 1 pending bytes instead of buffering
    // without bound. Its error is the connection's last.
    if (const auto oversized =
            conn.scanner.Oversized(options_.server.max_frame_bytes)) {
      SyntheticError(conn, util::ErrorKind::kFatal, *oversized);
      conn.evict = true;
      break;
    }
  }

  if (conn.peer_closed && !conn.evict) {
    if (const auto truncated = conn.scanner.TruncatedAtEof()) {
      // EOF mid-frame: best-effort truncation error before the close
      // (the peer may keep its read side open after shutdown(SHUT_WR)).
      SyntheticError(conn, util::ErrorKind::kFatal, *truncated);
    }
  }
  // `conn` was safe to hold through the drain loop above because ticket
  // completion only queues flushes; now that the reference is done with,
  // flush this conn (and any other whose ticket completed synchronously).
  flush_pending_.insert(conn_id);
  DrainPendingFlushes();  // may CloseConn; `conn` is dead after this line
}

void ShardServer::HandleConnWritable(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  FlushConn(it->second);
}

void ShardServer::HandleShardReadable(std::size_t slot_index) {
  ShardSlot& slot = slots_[slot_index];
  if (slot.router_fd < 0) return;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(slot.router_fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN drained, or a dying pipe — the reap handles death
    }
    if (n == 0) break;  // EOF: worker exiting; reap classifies it
    slot.decoder.Feed(chunk, static_cast<std::size_t>(n));
  }
  try {
    while (auto msg = slot.decoder.Pop()) {
      slot.in_flight.erase(msg->ticket);
      if (msg->kind == PipeMsgKind::kResponse) {
        CompleteTicket(msg->ticket, std::move(msg->payload));
      } else if (msg->kind == PipeMsgKind::kStatsReply) {
        auto it = tickets_.find(msg->ticket);
        if (it == tickets_.end()) continue;
        try {
          AccumulateStats(it->second.stats_agg, ParseStatsLine(msg->payload));
        } catch (const std::exception&) {
          // A torn stats line loses one shard's contribution, nothing
          // else — same contract as a shard dying mid-fan-out.
        }
        if (it->second.stats_waiting > 0 &&
            --it->second.stats_waiting == 0) {
          CompleteTicket(msg->ticket, FormatStatsLine(it->second.stats_agg));
        }
      }
      // kRequest/kStatsQuery arriving at the router = worker bug; the
      // decoder's kind check already threw for out-of-range kinds.
    }
  } catch (const std::exception& e) {
    // Framing lost on this pipe: crash-only response — kill the worker,
    // let the reap + respawn path rebuild a clean slate.
    std::fprintf(stderr, "[router] shard %zu pipe corrupted: %s\n",
                 slot_index, e.what());
    const pid_t pid = supervisor_.SlotPid(slot_index);
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  DrainPendingFlushes();
}

void ShardServer::HandleShardWritable(std::size_t slot_index) {
  FlushShard(slot_index);
}

void ShardServer::AdvanceRoll() {
  if (roll_queue_.empty() || roll_waiting_respawn_) return;
  const std::size_t slot_index = roll_queue_.front();
  if (supervisor_.SlotPid(slot_index) <= 0) {
    // Crashed (or mid-respawn) while queued: the crash path already
    // recycled it — skip, nothing to roll.
    roll_queue_.pop_front();
    return;
  }
  // Ring-aware drain: pull the arc first so new keys remap, let the old
  // worker finish what it owes, then — and only then — SIGTERM it.
  ring_.SetLive(slot_index, false);
  ShardSlot& slot = slots_[slot_index];
  if (!slot.in_flight.empty() || !slot.out.empty()) return;  // still owed
  supervisor_.BeginSlotShutdown(slot_index, "rolled");
  roll_waiting_respawn_ = true;
}

void ShardServer::HandleTick() {
  supervisor_.Step();
  if (supervisor_.ConsumeHupRequest() && roll_queue_.empty()) {
    for (std::size_t i = 0; i < slots_.size(); ++i) roll_queue_.push_back(i);
  }
  AdvanceRoll();
  DrainPendingFlushes();  // worker death above may have failed tickets

  if (accept_retry_ && listen_fd_ >= 0) {
    accept_retry_ = false;
    AcceptNewConnections();  // re-sets the flag if fds are still short
  }

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> to_close;
  for (auto& [conn_id, conn] : conns_) {
    // Slow-loris guard, same contract as the threaded server: a started
    // frame must keep bytes coming; idle *between* frames is legitimate,
    // and a frame cut by EOF was already reported.
    if (const auto stalled =
            conn.scanner.Stalled(options_.server.read_deadline_seconds, now);
        stalled && !conn.evict && !conn.peer_closed) {
      SyntheticError(conn, util::ErrorKind::kTimeout, *stalled);
      conn.evict = true;
      FlushConn(conn);  // may erase conn — restart iteration via ids
      to_close.clear();
      break;
    }
    if (draining_ && conn.fifo.empty() && conn.out.empty() &&
        !conn.scanner.MidFrame()) {
      to_close.push_back(conn_id);  // idle at drain time: hang up
    }
  }
  for (const std::uint64_t conn_id : to_close) CloseConn(conn_id);

  if (!draining_ && StopRequested()) {
    // Drain begins: stop accepting (close + unlink so retrying clients
    // fail fast with a typed connect error, same as the threaded
    // server), finish in-flight tickets within the grace window.
    draining_ = true;
    drain_deadline_ =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      options_.supervisor.drain_grace_seconds));
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (!options_.server.unix_socket_path.empty()) {
        ::unlink(options_.server.unix_socket_path.c_str());
      }
    }
  }
}

void ShardServer::Serve() {
  FS_CHECK_MSG(listen_fd_ >= 0, "Serve() before Start()");
  // Workers fork from inside this call and inherit the guard's handlers,
  // so a SIGTERM to a worker lands in its poll loop too.
  util::ScopedSignalGuard signal_guard;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) ThrowErrno("epoll_create1");
  epoll_event listen_event{};
  listen_event.events = EPOLLIN | EPOLLET;
  listen_event.data.u64 = MakeTag(kTagListener, 0);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) < 0) {
    ThrowErrno("epoll_ctl(listener)");
  }

  supervisor_.Begin();

  epoll_event events[64];
  for (;;) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, static_cast<int>(std::size(events)),
                     kTickMs);
    if (ready < 0 && errno != EINTR) ThrowErrno("epoll_wait");
    for (int i = 0; i < (ready > 0 ? ready : 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint64_t role = tag >> 56;
      const std::uint64_t id = tag & ((1ULL << 56) - 1);
      const std::uint32_t mask = events[i].events;
      if (role == kTagListener) {
        if (listen_fd_ >= 0) AcceptNewConnections();
      } else if (role == kTagConn) {
        if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          HandleConnReadable(id);
        }
        if ((mask & EPOLLOUT) != 0) HandleConnWritable(id);
      } else if (role == kTagShard) {
        if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          HandleShardReadable(static_cast<std::size_t>(id));
        }
        if ((mask & EPOLLOUT) != 0) {
          HandleShardWritable(static_cast<std::size_t>(id));
        }
      }
    }
    HandleTick();
    if (supervisor_.BreakerOpen()) break;
    if (draining_ &&
        (conns_.empty() ||
         std::chrono::steady_clock::now() >= drain_deadline_)) {
      break;
    }
  }

  // Teardown: sever remaining clients (past-grace stragglers), then shut
  // the worker tier down (End() snapshots slot status first, so the
  // report still shows who was serving and on which arc).
  std::vector<std::uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [conn_id, conn] : conns_) remaining.push_back(conn_id);
  for (const std::uint64_t conn_id : remaining) CloseConn(conn_id);
  tickets_.clear();
  flush_pending_.clear();
  report_ = supervisor_.End();
  for (ShardSlot& slot : slots_) {
    if (slot.router_fd >= 0) {
      ::close(slot.router_fd);
      slot.router_fd = -1;
    }
    if (slot.worker_fd >= 0) {
      ::close(slot.worker_fd);
      slot.worker_fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.server.unix_socket_path.empty()) {
      ::unlink(options_.server.unix_socket_path.c_str());
    }
  }
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

}  // namespace fadesched::service::shard
