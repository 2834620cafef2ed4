#include "service/shard/shard_worker.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

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

struct PendingReply {
  std::uint64_t ticket = 0;
  std::future<SchedulingResponse> future;
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

  // Completion stage: drain Submit futures into kResponse envelopes.
  // Completion order is arbitrary — the ticket carries the ordering.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<PendingReply> queue;
  bool closing = false;
  std::vector<std::thread> drainers;
  const std::size_t drainer_count =
      options.completion_threads == 0 ? 1 : options.completion_threads;
  drainers.reserve(drainer_count);
  for (std::size_t t = 0; t < drainer_count; ++t) {
    drainers.emplace_back([&] {
      for (;;) {
        PendingReply reply;
        {
          std::unique_lock<std::mutex> lock(queue_mutex);
          queue_cv.wait(lock, [&] { return closing || !queue.empty(); });
          if (queue.empty()) return;  // closing and dry
          reply = std::move(queue.front());
          queue.pop_front();
        }
        // The future is always fulfilled (batcher contract), so this
        // blocks only for genuinely in-flight work.
        const SchedulingResponse response = reply.future.get();
        PipeMsg msg;
        msg.kind = PipeMsgKind::kResponse;
        msg.ticket = reply.ticket;
        msg.payload = FormatResponseLine(response);
        writer.Write(msg);
      }
    });
  }

  const auto enqueue = [&](std::uint64_t ticket,
                           std::future<SchedulingResponse> future) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      queue.push_back(PendingReply{ticket, std::move(future)});
    }
    queue_cv.notify_one();
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
            // SubmitFrame answers a frame that does not parse, and serves
            // response-cache hits inline, with an already fulfilled
            // future, so those cost the drainer a get() and a write,
            // never a batcher round-trip.
            enqueue(msg->ticket, service.SubmitFrame(msg->payload));
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
  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    closing = true;
  }
  queue_cv.notify_all();
  for (std::thread& t : drainers) t.join();
  service.Drain();
  ::close(options.pipe_fd);
  return rc;
}

}  // namespace fadesched::service::shard
