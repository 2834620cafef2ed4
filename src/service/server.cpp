#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "service/protocol.hpp"
#include "service/shard/frame_scanner.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service {

namespace {

constexpr int kPollTickMs = 200;

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw util::TransientError(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, retrying short writes; false if the peer went
/// away (EPIPE et al.) — a vanished client is not a server error.
bool WriteAll(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + written, data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

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
    if (resolved_port != nullptr &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
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
  SetNonBlocking(fd);
  return fd;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<SchedulingService>(options_.service)) {}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void Server::Start() { listen_fd_ = BindListenSocket(options_, &port_); }

bool Server::StopRequested() const {
  return stop_.load(std::memory_order_relaxed) || util::ShutdownRequested();
}

void Server::Serve() {
  FS_CHECK_MSG(listen_fd_ >= 0, "Serve() before Start()");
  while (!StopRequested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal landed — loop re-checks stop
      ThrowErrno("poll(listen)");
    }
    ReapFinishedConnections();
    if (ready == 0) continue;  // tick: re-check the stop flags
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: the peer gave up between poll and accept; the
      // non-blocking listener turns that into a re-poll instead of a
      // block that would stop us noticing Stop().
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      ThrowErrno("accept");
    }
    connections_.emplace_back([this, fd] { HandleConnection(fd); });
  }
  // Stop accepting before draining: close the listener (and unlink the
  // unix path) so that clients retrying during the drain fail fast with a
  // typed connect error instead of hanging in a backlog nobody will ever
  // accept — the chaos soak counts those as unserved-after-drain, not
  // lost.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
  // Graceful drain: connections finish the frame they are serving, then
  // the batcher completes everything already queued.
  for (auto& connection : connections_) {
    if (connection.joinable()) connection.join();
  }
  connections_.clear();
  service_->Drain();
}

void Server::HandleConnection(int fd) {
  ServiceMetrics& metrics = service_->Metrics();
  shard::FrameScanner scanner;
  std::string reply;
  bool peer_closed = false;

  // Best-effort typed connection-level error (no request header was
  // attributed, so the line carries the "-" id).
  const auto send_error = [&](util::ErrorKind kind,
                              const std::string& message) {
    return WriteAll(fd, FormatErrorLine(kind, message) + "\n");
  };

  while (!peer_closed) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick: only hang up between frames, never mid-frame — a
      // client that already sent half a request gets its answer.
      if (StopRequested() && !scanner.MidFrame()) break;
      // Slow-loris guard: a stalled frame's peer is told why and evicted.
      if (const auto stalled =
              scanner.Stalled(options_.read_deadline_seconds,
                              std::chrono::steady_clock::now())) {
        metrics.evicted_slow.fetch_add(1, std::memory_order_relaxed);
        send_error(util::ErrorKind::kTimeout, *stalled);
        break;
      }
      continue;
    }
    // Straight into the scanner's buffer, clipped at the frame cap.
    const std::span<char> window =
        scanner.ReceiveWindow(options_.max_frame_bytes);
    const ssize_t n = ::recv(fd, window.data(), window.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    peer_closed = n == 0;
    scanner.Received(static_cast<std::size_t>(n));  // nothing at EOF

    while (const std::optional<shard::CarvedFrame> event = scanner.Carve()) {
      if (event->kind == shard::CarvedFrame::Kind::kStats) {
        // Metrics query, valid only between frames — inside a frame the
        // same bytes are scenario payload.
        reply = FormatStatsLine(CaptureStats(metrics));
      } else {
        // The view stays valid through the call: nothing is received
        // before the reply is written.
        reply = FormatResponseLine(service_->SubmitFrame(event->frame).get());
      }
      reply += '\n';
      if (!WriteAll(fd, reply)) {
        peer_closed = true;
        break;
      }
    }

    // Max-frame guard: the window clip lets at most one byte past the
    // cap in, so a frame is rejected at exactly max_frame_bytes + 1
    // pending bytes instead of being buffered without bound.
    if (!peer_closed) {
      if (const auto oversized = scanner.Oversized(options_.max_frame_bytes)) {
        metrics.oversized_frames.fetch_add(1, std::memory_order_relaxed);
        send_error(util::ErrorKind::kFatal, *oversized);
        break;
      }
    } else if (const auto truncated = scanner.TruncatedAtEof()) {
      // EOF mid-frame: best-effort error naming how far the frame got
      // (the peer may keep its read side open after shutdown(SHUT_WR)).
      metrics.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(util::ErrorKind::kFatal, *truncated);
    }
  }
  ::close(fd);
  {
    const std::lock_guard<std::mutex> lock(finished_mutex_);
    finished_.push_back(std::this_thread::get_id());
  }
}

void Server::ReapFinishedConnections() {
  std::vector<std::thread::id> done;
  {
    const std::lock_guard<std::mutex> lock(finished_mutex_);
    done.swap(finished_);
  }
  for (const std::thread::id id : done) {
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();  // the thread already announced completion — no wait
        connections_.erase(it);
        break;
      }
    }
  }
}

void Server::Stop() { stop_.store(true, std::memory_order_relaxed); }

}  // namespace fadesched::service
