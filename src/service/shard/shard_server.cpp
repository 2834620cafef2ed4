#include "service/shard/shard_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <thread>
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
constexpr std::uint64_t kTagLocal = 4;  // the local slot's eventfd

// Threads of the local slot's parse pool (LocalSlot::parsers). A shard
// worker parses on its pipe reader.
constexpr unsigned kLocalParseThreads = 2;

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

/// Binds + listens per `options` (unix path or TCP host:port) and returns
/// the non-blocking listener fd; `resolved_port` receives the ephemeral
/// port for TCP. Throws util::HarnessError on failure.
int BindListenSocket(const ServerOptions& options, int* resolved_port) {
  int fd = -1;
  if (!options.unix_socket_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) ThrowErrno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      throw util::FatalError("unix socket path too long: " +
                             options.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options.unix_socket_path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      ThrowErrno("bind(" + options.unix_socket_path + ")");
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) ThrowErrno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw util::FatalError("invalid bind address: " + options.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      ThrowErrno("bind(" + options.host + ":" + std::to_string(options.port) +
                 ")");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *resolved_port = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("listen");
  }
  SetNonBlockingFd(fd);
  return fd;
}

int MakeEventFd() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) ThrowErrno("eventfd");
  return fd;
}

}  // namespace

ShardServer::LocalSlot::LocalSlot(const ShardServerOptions& options)
    : service(options.server.service),
      wake_fd(MakeEventFd()),
      parsers(std::in_place, kLocalParseThreads) {}

ShardServer::LocalSlot::~LocalSlot() {
  // No thread may write the eventfd once it is closed: the parse pool
  // has joined and the batcher's workers have replied.
  parsers.reset();
  service.Drain();
  ::close(wake_fd);
}

Responder ShardServer::LocalReply(std::uint64_t ticket) {
  return [this, ticket](SchedulingResponse response) {
    std::string line = FormatResponseLine(response);
    if (std::this_thread::get_id() == loop_thread_) {
      // Answered while the loop routed the frame.
      CompleteTicket(ticket, std::move(line));
      return;
    }
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(local_->mutex);
      wake = local_->done.empty();
      local_->done.emplace_back(ticket, std::move(line));
    }
    // One wake per batch: the loop reads the eventfd before it takes the
    // batch, so a line queued after that finds `done` empty and wakes it
    // again.
    if (wake) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(local_->wake_fd, &one, sizeof(one));
    }
  };
}

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)), live_pids_(options_.num_shards) {
  for (auto& pid : live_pids_) pid.store(-1, std::memory_order_relaxed);
  if (options_.num_shards == 0) {
    local_ = std::make_unique<LocalSlot>(options_);
    return;
  }
  ring_.emplace(HashRingOptions{options_.num_shards,
                                ShardServerOptions::vnodes_per_shard,
                                ShardServerOptions::ring_seed});
  SupervisorOptions sup = options_.supervisor;
  sup.num_workers = options_.num_shards;
  sup.hooks.prepare_spawn = [this](std::size_t slot) { OnPrepareSpawn(slot); };
  sup.hooks.worker_spawned = [this](std::size_t slot, pid_t pid) {
    OnWorkerSpawned(slot, pid);
  };
  sup.hooks.worker_down = [this](std::size_t slot, const std::string& reason) {
    OnWorkerDown(slot, reason);
  };
  sup.hooks.slot_annotation = [this](std::size_t slot) {
    return SlotAnnotation(slot);
  };
  supervisor_.emplace(
      // Worker main runs in the forked child: shed every inherited
      // router fd, then serve this slot's pipe until EOF/SIGTERM.
      [this](std::size_t slot, std::size_t spawn_ordinal) {
        ShardWorkerOptions worker;
        worker.pipe_fd = CloseInheritedFdsInChild(slot);
        worker.shard_id = slot;
        worker.spawn_ordinal = spawn_ordinal;
        worker.service = options_.server.service;
        return RunShardWorker(worker);
      },
      std::move(sup));
  slots_.resize(options_.num_shards);
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
  ring_->SetLive(slot_index, true);
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
  ring_->SetLive(slot_index, false);
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
  std::snprintf(arc_buf, sizeof(arc_buf), "%.4f", ring_->ArcShare(slot));
  std::string out = "\"shard_id\": " + std::to_string(slot) +
                    ", \"ring_arc\": " + arc_buf + ", \"ring_live\": " +
                    (ring_->Live(slot) ? "true" : "false");
  return out;
}

std::size_t ShardServer::PickShard(std::string_view frame) {
  if (options_.routing == RoutingMode::kAffinity) {
    return ring_->ShardFor(RoutingKey(frame));
  }
  // Round-robin control arm: rotate over live slots, affinity-blind.
  for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
    const std::size_t slot =
        (round_robin_next_ + probe) % slots_.size();
    if (ring_->Live(slot)) {
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
  CompleteTicket(OpenTicket(conn), FormatErrorLine(kind, message));
}

std::uint64_t ShardServer::OpenTicket(Conn& conn) {
  const std::uint64_t ticket_id = next_ticket_id_++;
  tickets_[ticket_id].conn_id = conn.id;
  conn.fifo.push_back(ticket_id);
  return ticket_id;
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
  // synchronously from inside ReadConn's carve loop). Every event-loop
  // stage drains this queue once references are dropped.
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

bool ShardServer::AtCap(const Conn& conn) {
  return conn.out.size() >= kConnOutCapBytes ||
         conn.fifo.size() >= kConnFifoCap;
}

void ShardServer::FlushConn(Conn& conn) {
  for (;;) {
    // Re-sequencing point: only the done head-run of the FIFO may leave —
    // a later ticket finishing first waits for its elders, which is what
    // keeps per-connection response order identical to request order no
    // matter which slot or thread answered.
    while (!conn.fifo.empty()) {
      auto it = tickets_.find(conn.fifo.front());
      if (it == tickets_.end()) {
        conn.fifo.pop_front();  // dropped ticket (shouldn't happen live)
        continue;
      }
      if (StatsUnasked(it->second)) AskStats(it->first);
      if (!it->second.done) break;
      conn.out += it->second.response;
      conn.out += '\n';
      tickets_.erase(it);
      conn.fifo.pop_front();
    }
    if (!conn.out.empty() && !WriteSome(conn.fd, conn.out)) {
      CloseConn(conn.id);
      return;
    }
    if (!conn.paused || AtCap(conn)) break;
    // Back under both caps: read again. Edge-triggered epoll does not
    // report bytes that were already waiting, so the loop reads itself,
    // and the time spent paused does not count against the client's
    // read deadline.
    conn.paused = false;
    conn.scanner.RestartDeadline();
    ReadConn(conn);
  }
  if (conn.closing && conn.fifo.empty() && conn.out.empty()) {
    CloseConn(conn.id);
    return;
  }
  UpdateEpollInterest(conn.fd, MakeTag(kTagConn, conn.id), !conn.out.empty());
}

void ShardServer::CloseConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Orphan this connection's tickets: ones already answered, or a STATS
  // never asked, die here; ones still on a slot die when the reply (or
  // the worker) comes back.
  for (const std::uint64_t ticket_id : it->second.fifo) {
    auto ticket_it = tickets_.find(ticket_id);
    if (ticket_it != tickets_.end() &&
        (ticket_it->second.done || StatsUnasked(ticket_it->second))) {
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
  const std::uint64_t ticket_id = OpenTicket(conn);
  if (local_ != nullptr) {
    // The loop runs only the probe: a hit, a rejection or a shed
    // completes inline. A frame that needs a parse is copied to the parse
    // pool, and its wait there counts as batcher queue delay, so the
    // overload controller sees that backlog.
    if (!local_->service.SubmitFrame(frame, LocalReply(ticket_id),
                                     /*may_parse=*/false)) {
      local_->parsers->Submit([this, ticket_id, copy = std::string(frame),
                               queued_at = std::chrono::steady_clock::now()] {
        local_->service.SubmitFrame(
            copy, LocalReply(ticket_id), /*may_parse=*/true,
            std::chrono::steady_clock::now() - queued_at);
      });
    }
    return;
  }

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
  // Asked by FlushConn once every earlier reply on the connection is
  // done, so the snapshot counts all of them.
  tickets_[OpenTicket(conn)].is_stats = true;
}

bool ShardServer::StatsUnasked(const Ticket& ticket) {
  return ticket.is_stats && !ticket.done && ticket.stats_waiting == 0;
}

void ShardServer::AskStats(std::uint64_t ticket_id) {
  if (local_ != nullptr) {
    CompleteTicket(ticket_id,
                   FormatStatsLine(CaptureStats(local_->service.Metrics())));
    return;
  }

  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Same backpressure contract as RouteFrame: a stalled worker's pipe
    // must not grow past the cap. Its snapshot drops out of the
    // aggregate, exactly as if the shard died mid-fan-out.
    if (slots_[i].router_fd >= 0 && supervisor_->SlotPid(i) > 0 &&
        slots_[i].out.size() <= options_.shard_pipe_cap_bytes) {
      targets.push_back(i);
    }
  }
  if (targets.empty()) {
    // Nobody to ask: answer with a zero snapshot rather than hang.
    CompleteTicket(ticket_id, FormatStatsLine(StatsSnapshot{}));
    return;
  }
  tickets_[ticket_id].stats_waiting = targets.size();
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

void ShardServer::ReadConn(Conn& conn) {
  const std::size_t max_frame_bytes = options_.server.max_frame_bytes;
  for (;;) {
    // Carve before receiving more: a connection resumed from a pause may
    // still hold complete frames. Frames pipelined behind the pending one
    // never stall the connection, and the receive window's clip at the
    // frame cap counts only the pending frame.
    while (!AtCap(conn)) {
      const std::optional<CarvedFrame> event = conn.scanner.Carve();
      if (!event) break;
      if (event->kind == CarvedFrame::Kind::kStats) {
        RouteStats(conn);
      } else {
        RouteFrame(conn, event->frame);
      }
    }
    if (AtCap(conn)) {
      conn.paused = true;  // FlushConn resumes it once it drains
      return;
    }
    if (conn.peer_closed) {
      // EOF with everything carved: a frame it cut short gets a
      // best-effort error, the connection's last (the peer may keep its
      // read side open after shutdown(SHUT_WR)).
      if (const auto truncated = conn.scanner.TruncatedAtEof()) {
        if (local_ != nullptr) {
          local_->service.Metrics().protocol_errors.fetch_add(
              1, std::memory_order_relaxed);
        }
        SyntheticError(conn, util::ErrorKind::kFatal, *truncated);
      }
      conn.closing = true;
      return;
    }
    // Max-frame guard: reject at max_frame_bytes + 1 pending bytes
    // instead of buffering without bound. Its error is the connection's
    // last.
    if (const auto oversized = conn.scanner.Oversized(max_frame_bytes)) {
      if (local_ != nullptr) {
        local_->service.Metrics().oversized_frames.fetch_add(
            1, std::memory_order_relaxed);
      }
      SyntheticError(conn, util::ErrorKind::kFatal, *oversized);
      conn.closing = true;
      return;
    }
    // Edge-triggered: receive until EAGAIN, straight into the scanner.
    const std::span<char> window = conn.scanner.ReceiveWindow(max_frame_bytes);
    const ssize_t n = ::recv(conn.fd, window.data(), window.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      conn.peer_closed = true;  // EOF, or a hard error: treat as gone
      continue;
    }
    conn.scanner.Received(static_cast<std::size_t>(n));
  }
}

void ShardServer::HandleConnReadable(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  // Input after eviction or EOF is ignored, and a paused connection is
  // read only when FlushConn resumes it: a readable edge then (EPOLLOUT's,
  // say) must not report EOF again or read past a cap.
  if (conn.closing || conn.paused) return;
  ReadConn(conn);
  // `conn` was safe to hold through ReadConn because ticket completion
  // only queues flushes; now flush this conn (and any other whose ticket
  // completed synchronously).
  flush_pending_.insert(conn_id);
  DrainPendingFlushes();  // may CloseConn; `conn` is dead after this line
}

void ShardServer::HandleConnWritable(std::uint64_t conn_id) {
  flush_pending_.insert(conn_id);
  DrainPendingFlushes();
}

void ShardServer::HandleLocalCompletions() {
  // Reset the eventfd before taking the batch (see LocalSlot's sink).
  std::uint64_t wakes = 0;
  [[maybe_unused]] const ssize_t n =
      ::read(local_->wake_fd, &wakes, sizeof(wakes));
  std::vector<std::pair<std::uint64_t, std::string>> done;
  {
    const std::lock_guard<std::mutex> lock(local_->mutex);
    done.swap(local_->done);
  }
  for (auto& [ticket_id, line] : done) {
    CompleteTicket(ticket_id, std::move(line));
  }
  DrainPendingFlushes();
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
    const pid_t pid = supervisor_->SlotPid(slot_index);
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
  if (supervisor_->SlotPid(slot_index) <= 0) {
    // Crashed (or mid-respawn) while queued: the crash path already
    // recycled it — skip, nothing to roll.
    roll_queue_.pop_front();
    return;
  }
  // Ring-aware drain: pull the arc first so new keys remap, let the old
  // worker finish what it owes, then — and only then — SIGTERM it.
  ring_->SetLive(slot_index, false);
  ShardSlot& slot = slots_[slot_index];
  if (!slot.in_flight.empty() || !slot.out.empty()) return;  // still owed
  supervisor_->BeginSlotShutdown(slot_index, "rolled");
  roll_waiting_respawn_ = true;
}

void ShardServer::HandleTick() {
  if (supervisor_) {
    supervisor_->Step();
    if (supervisor_->ConsumeHupRequest() && roll_queue_.empty()) {
      for (std::size_t i = 0; i < slots_.size(); ++i) roll_queue_.push_back(i);
    }
    AdvanceRoll();
    DrainPendingFlushes();  // worker death above may have failed tickets
  }

  if (accept_retry_ && listen_fd_ >= 0) {
    accept_retry_ = false;
    AcceptNewConnections();  // re-sets the flag if fds are still short
  }

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> to_close;
  for (auto& [conn_id, conn] : conns_) {
    // Slow-loris guard: a started frame must keep bytes coming. Idle
    // *between* frames is legitimate, a frame cut by EOF was already
    // reported, and a paused connection is waiting on the loop, not
    // stalling.
    if (!conn.closing && !conn.peer_closed && !conn.paused) {
      if (const auto stalled = conn.scanner.Stalled(
              options_.server.read_deadline_seconds, now)) {
        if (local_ != nullptr) {
          local_->service.Metrics().evicted_slow.fetch_add(
              1, std::memory_order_relaxed);
        }
        SyntheticError(conn, util::ErrorKind::kTimeout, *stalled);
        conn.closing = true;
        continue;
      }
    }
    if (draining_ && conn.fifo.empty() && conn.out.empty() &&
        !conn.scanner.MidFrame()) {
      to_close.push_back(conn_id);  // idle at drain time: hang up
    }
  }
  for (const std::uint64_t conn_id : to_close) CloseConn(conn_id);
  DrainPendingFlushes();  // the evictions' errors

  if (!draining_ && StopRequested()) {
    // Drain begins: stop accepting (close + unlink so retrying clients
    // fail fast with a typed connect error instead of hanging in a
    // backlog nobody will accept), finish in-flight tickets within the
    // grace window.
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
  const auto watch = [this](int fd, std::uint64_t tag) {
    epoll_event event{};
    event.events = EPOLLIN | EPOLLET;
    event.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      ThrowErrno("epoll_ctl(add)");
    }
  };
  watch(listen_fd_, MakeTag(kTagListener, 0));
  loop_thread_ = std::this_thread::get_id();
  if (local_ != nullptr) {
    watch(local_->wake_fd, MakeTag(kTagLocal, 0));
  } else {
    supervisor_->Begin();
  }

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
      } else if (role == kTagLocal) {
        HandleLocalCompletions();
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
    if (supervisor_ && supervisor_->BreakerOpen()) break;
    if (draining_ &&
        (conns_.empty() ||
         std::chrono::steady_clock::now() >= drain_deadline_)) {
      break;
    }
  }

  // Teardown: sever remaining clients (past-grace stragglers), then shut
  // the slots down. The local slot finishes what its service admitted;
  // the worker tier's End() snapshots slot status first, so the report
  // still shows who was serving and on which arc.
  std::vector<std::uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [conn_id, conn] : conns_) remaining.push_back(conn_id);
  for (const std::uint64_t conn_id : remaining) CloseConn(conn_id);
  tickets_.clear();
  flush_pending_.clear();
  if (local_ != nullptr) {
    local_->parsers.reset();
    local_->service.Drain();
  } else {
    report_ = supervisor_->End();
  }
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
