// A shard worker: one forked process owning one SchedulingService (its
// own scenario/response LRU, batcher, and overload controller), speaking
// the binary pipe envelope to the router over a UNIX socketpair.
//
// Layout inside the process:
//
//   * one reader loop (the main thread) polls the pipe, decodes
//     messages, and dispatches: kRequest frames go through
//     SchedulingService::SubmitFrame (the inline cache fast path
//     answers warm repeats without touching the batcher queue);
//     kStatsQuery is answered immediately with a FormatStatsLine reply;
//   * each reply leaves as a kResponse message from the thread that
//     answered it, this one or a batcher worker, in completion order —
//     the ticket id carries ordering duty, so out-of-order completion
//     here is fine;
//   * all pipe writes funnel through one mutex: envelopes must land
//     contiguously on the stream.
//
// Exit protocol (crash-only): pipe EOF (the router died or dropped us) or
// SIGTERM (drain request) both end the read loop; the worker drains its
// service — every accepted future still gets computed and written, which
// is what makes a ring-aware roll lossless — then returns 0. Any escape
// of a non-taxonomy exception exits non-zero and the supervisor treats
// it as a crash.
#pragma once

#include <cstddef>

#include "service/service.hpp"

namespace fadesched::service::shard {

struct ShardWorkerOptions {
  int pipe_fd = -1;                   ///< worker end of the socketpair
  std::size_t shard_id = 0;
  /// Global fork ordinal, surfaced via ServiceMetrics::worker_restarts on
  /// the STATS line.
  std::size_t spawn_ordinal = 0;
  ServiceOptions service;
};

/// Runs the worker loop until EOF/SIGTERM. Returns the process exit code
/// (0 on a clean drain). Called inside the forked child; never returns
/// through supervisor state.
int RunShardWorker(const ShardWorkerOptions& options);

}  // namespace fadesched::service::shard
