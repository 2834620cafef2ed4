#include "service/shard/shard_worker.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "service/protocol.hpp"
#include "service/shard/pipe.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service::shard {

namespace {

constexpr int kPollTickMs = 20;

/// One pipe write mutex per worker: envelopes must land contiguously on
/// the stream or the router's decoder sees torn headers.
class PipeWriter {
 public:
  explicit PipeWriter(int fd) : fd_(fd) {}

  /// False once the router end is gone — callers stop producing.
  bool Write(const PipeMsg& msg) {
    std::string wire;
    AppendPipeMsg(wire, msg);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (broken_) return false;
    std::size_t written = 0;
    while (written < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + written,
                               wire.size() - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        broken_ = true;
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
  std::mutex mutex_;
  bool broken_ = false;
};

}  // namespace

int RunShardWorker(const ShardWorkerOptions& options) {
  if (options.pipe_fd < 0) {
    std::fprintf(stderr, "[shard %zu] no pipe fd\n", options.shard_id);
    return 1;
  }
  SchedulingService service(options.service);
  service.Metrics().worker_restarts.store(options.spawn_ordinal,
                                          std::memory_order_relaxed);
  PipeWriter writer(options.pipe_fd);

  // Each reply leaves as a kResponse envelope, written by whichever thread
  // answered it.
  const auto reply_to = [&writer](std::uint64_t ticket) -> Responder {
    return [&writer, ticket](SchedulingResponse response) {
      writer.Write(PipeMsg{PipeMsgKind::kResponse, ticket,
                           FormatResponseLine(response)});
    };
  };

  // Reader loop (main thread): poll → decode → dispatch.
  ServiceMetrics& metrics = service.Metrics();
  PipeDecoder decoder;
  char chunk[16384];
  bool eof = false;
  int rc = 0;
  try {
    while (!eof && !util::ShutdownRequested()) {
      pollfd pfd{options.pipe_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollTickMs);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;  // tick: re-check the shutdown flag
      const ssize_t n = ::recv(options.pipe_fd, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) {
        eof = true;  // router gone or draining us — finish and exit
        break;
      }
      decoder.Feed(chunk, static_cast<std::size_t>(n));
      while (auto msg = decoder.Pop()) {
        switch (msg->kind) {
          case PipeMsgKind::kRequest:
            // Parsed here when it must be. A hit or a rejection is written
            // from this thread, a batched reply by the batcher worker that
            // computed it, so no thread waits on a future.
            service.SubmitFrame(msg->payload, reply_to(msg->ticket),
                                /*may_parse=*/true);
            break;
          case PipeMsgKind::kStatsQuery: {
            PipeMsg out;
            out.kind = PipeMsgKind::kStatsReply;
            out.ticket = msg->ticket;
            out.payload = FormatStatsLine(CaptureStats(metrics));
            if (!writer.Write(out)) eof = true;
            break;
          }
          case PipeMsgKind::kResponse:
          case PipeMsgKind::kStatsReply:
            // Router-bound kinds arriving at a worker mean the router
            // has a bug; crash-only says die loudly.
            std::fprintf(stderr, "[shard %zu] unexpected pipe kind %u\n",
                         options.shard_id,
                         static_cast<unsigned>(msg->kind));
            eof = true;
            rc = 1;
            break;
        }
        if (eof) break;
      }
    }
  } catch (const std::exception& e) {
    // A torn pipe header or decoder fault: crash-only exit, the
    // supervisor respawns a fresh worker.
    std::fprintf(stderr, "[shard %zu] fatal: %s\n", options.shard_id,
                 e.what());
    rc = 1;
  }

  // Drain: everything admitted gets computed and written before exit —
  // a rolled worker finishes its in-flight tickets, which is what keeps
  // the soak ledger zero-loss through a SIGHUP roll.
  service.Drain();
  ::close(options.pipe_fd);
  return rc;
}

}  // namespace fadesched::service::shard
