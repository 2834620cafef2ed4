#include "service/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/protocol.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw util::TransientError(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

/// Polls until `events` is ready or the deadline expires. Throws
/// util::TimeoutError naming the operation on expiry.
void PollOrTimeout(int fd, short events, const util::Deadline& deadline,
                   const char* what) {
  for (;;) {
    int wait_ms = -1;
    if (deadline.Enabled()) {
      if (deadline.Expired()) {
        throw util::TimeoutError(std::string(what) +
                                 " timed out (peer stalled)");
      }
      // Re-check the deadline each 200 ms tick; clamped before the cast,
      // since a saturated deadline has infinite time left.
      const double remaining = deadline.RemainingSeconds();
      wait_ms = remaining < 0.2 ? static_cast<int>(remaining * 1e3) + 1 : 200;
    }
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ThrowErrno(std::string("poll(") + what + ")");
    }
    if (ready > 0) return;
  }
}

}  // namespace

Client::~Client() { Close(); }

void Client::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

/// Completes a non-blocking connect: waits for writability within the
/// connect deadline, then checks SO_ERROR.
void Client::FinishConnect(const std::string& what) {
  const util::Deadline deadline =
      util::Deadline::After(options_.connect_timeout_seconds);
  try {
    PollOrTimeout(fd_, POLLOUT, deadline, what.c_str());
  } catch (...) {
    Close();
    throw;
  }
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &len) < 0 ||
      error != 0) {
    if (error != 0) errno = error;
    Close();
    ThrowErrno(what);
  }
}

void Client::ConnectUnix(const std::string& path) {
  Close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket(AF_UNIX)");
  SetNonBlocking(fd_);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    Close();
    throw util::FatalError("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS || errno == EAGAIN) {
      FinishConnect("connect(" + path + ")");
      return;
    }
    Close();
    ThrowErrno("connect(" + path + ")");
  }
}

void Client::ConnectTcp(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket(AF_INET)");
  SetNonBlocking(fd_);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw util::FatalError("invalid address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS) {
      FinishConnect("connect(" + host + ":" + std::to_string(port) + ")");
      return;
    }
    Close();
    ThrowErrno("connect(" + host + ":" + std::to_string(port) + ")");
  }
}

void Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) throw util::FatalError("SendRaw on a disconnected client");
  const util::Deadline deadline =
      util::Deadline::After(options_.io_timeout_seconds);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        PollOrTimeout(fd_, POLLOUT, deadline, "send");
        continue;
      }
      ThrowErrno("send");
    }
    written += static_cast<std::size_t>(n);
  }
}

std::string Client::ReadLine() {
  if (fd_ < 0) throw util::FatalError("ReadLine on a disconnected client");
  const util::Deadline deadline =
      util::Deadline::After(options_.io_timeout_seconds);
  char chunk[4096];
  for (;;) {
    const std::size_t line_end = buffer_.find('\n');
    if (line_end != std::string::npos) {
      std::string line = buffer_.substr(0, line_end);
      buffer_.erase(0, line_end + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    PollOrTimeout(fd_, POLLIN, deadline, "recv");
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      ThrowErrno("recv");
    }
    if (n == 0) {
      throw util::TransientError("connection closed before a response line");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

SchedulingResponse Client::Call(const SchedulingRequest& request) {
  SendRaw(FormatRequestFrame(request));
  return ParseResponseLine(ReadLine());
}

StatsSnapshot Client::Stats() {
  SendRaw(std::string(kStatsVerb) + "\n");
  return ParseStatsLine(ReadLine());
}

}  // namespace fadesched::service
