// Line-protocol client: connect to a serve endpoint (Unix-domain or TCP),
// send request frames, read response lines. Used by the loadgen, the
// chaos transport, the service bench, and the loopback tests; simple by
// design — one in-flight request per connection.
//
// Every blocking point is poll-based with a deadline: connect, send, and
// recv all give up with util::TimeoutError (kTimeout, exit 3) instead of
// hanging forever on a stalled peer. The socket stays non-blocking for
// its whole life; deadlines are wall-clock budgets per operation, not
// per syscall, so a peer trickling one byte per tick cannot stretch an
// operation past its budget.
#pragma once

#include <string>

#include "service/protocol.hpp"
#include "service/request.hpp"

namespace fadesched::service {

struct ClientOptions {
  /// Budget for establishing a connection (seconds); 0 = no limit.
  double connect_timeout_seconds = 10.0;
  /// Budget for one SendRaw or ReadLine operation (seconds); 0 = no
  /// limit. A stalled `recv` surfaces as util::TimeoutError instead of
  /// blocking the caller forever.
  double io_timeout_seconds = 30.0;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options) : options_(options) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a Unix-domain socket path or "host:port". Throws
  /// util::HarnessError: kTransient on connection failure, kTimeout when
  /// the connect deadline expires.
  void ConnectUnix(const std::string& path);
  void ConnectTcp(const std::string& host, int port);

  [[nodiscard]] bool Connected() const { return fd_ >= 0; }
  void Close();

  /// Half-close: shuts down the write side only, delivering EOF to the
  /// peer while keeping the read side open. The malformed-frame tests
  /// use this to observe the server's EOF-mid-frame error response.
  void ShutdownWrite();

  [[nodiscard]] const ClientOptions& Options() const { return options_; }

  /// Raw socket fd (-1 when disconnected). The socket is non-blocking
  /// for its whole life, so a caller may drive it through its own
  /// readiness loop — the loadgen registers many Client fds
  /// with one epoll and owns all I/O on them while doing so.
  [[nodiscard]] int NativeHandle() const { return fd_; }

  /// Sends one frame and blocks (bounded by io_timeout_seconds) for the
  /// single response line. Throws util::HarnessError on transport
  /// failure, timeout, or malformed response.
  SchedulingResponse Call(const SchedulingRequest& request);

  /// Sends the bare STATS verb and parses the checksummed counter line —
  /// a point-in-time snapshot of the server (a sharded router answers
  /// with the sum over its live shards). Throws
  /// util::HarnessError on transport failure or a corrupt line.
  StatsSnapshot Stats();

  /// Raw variants (the bench uses these to measure serialization
  /// separately and the tests to send malformed frames).
  void SendRaw(const std::string& bytes);
  std::string ReadLine();

 private:
  void FinishConnect(const std::string& what);

  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace fadesched::service
