// Line-delimited socket front-end for the SchedulingService: one listener
// (Unix-domain socket or TCP loopback), one thread per connection, one
// response line per request frame.
//
// Shutdown is cooperative and graceful: the accept loop polls at a ~200 ms
// tick and exits when Stop() is called or util::ShutdownRequested() flips
// (the CLI installs a ScopedSignalGuard, so SIGTERM/SIGINT land here).
// In-flight requests complete and their responses are written before
// connections close; the service then drains its queue and joins its
// workers. `fadesched_cli serve` exits 0 after a graceful drain — CI pins
// that contract.
//
// This is plain `serve`, the in-process topology. `serve --shards N` is
// shard::ShardServer, an epoll router in front of forked shard workers.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

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

  ServiceOptions service;
};

/// Binds + listens per `options` (unix path or TCP host:port) and returns
/// the non-blocking listener fd; `resolved_port` (may be null) receives
/// the ephemeral port for TCP. Throws util::HarnessError on failure.
/// Shared by Server and the sharded router (shard::ShardServer).
int BindListenSocket(const ServerOptions& options, int* resolved_port);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens; throws util::HarnessError on socket failure.
  void Start();

  /// Resolved TCP port (after Start; 0 for Unix-domain sockets).
  [[nodiscard]] int Port() const { return port_; }

  /// Accept/serve loop; blocks until Stop() or a guarded SIGINT/SIGTERM,
  /// then completes in-flight requests, drains the service, and returns.
  void Serve();

  /// Requests shutdown from any thread (idempotent).
  void Stop();

  [[nodiscard]] SchedulingService& Service() { return *service_; }

 private:
  void HandleConnection(int fd);
  void ReapFinishedConnections();
  [[nodiscard]] bool StopRequested() const;

  ServerOptions options_;
  std::unique_ptr<SchedulingService> service_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> connections_;
  // Connection threads announce completion here so the accept loop can
  // join them as it goes; without reaping, a reconnect-heavy workload
  // (the chaos soak retries by reconnecting) would pile up thousands of
  // finished-but-unjoined threads until shutdown.
  std::mutex finished_mutex_;
  std::vector<std::thread::id> finished_;
};

}  // namespace fadesched::service
