// Bounded MPMC request queue + worker pool with deadline-aware admission
// control.
//
// Producers (the server's connection threads, the bench, tests) Submit()
// requests; N workers pop and run the handler. Three admission outcomes,
// mapped onto the util::error taxonomy so CLI callers inherit the
// repo-wide exit-code contract:
//
//   * queue full  → kShed    (ErrorKind::kTransient, exit 1 — retry later)
//   * overloaded  → kShed    (ErrorKind::kTransient; adaptive, see below)
//   * draining    → kShed    (ErrorKind::kInterrupted, exit 3)
//   * deadline passed while queued → kTimeout (ErrorKind::kTimeout, exit 3)
//
// Backpressure is shedding, not blocking: a full queue answers
// immediately instead of stalling the producer, so one slow scenario
// cannot wedge every connection. Every Submit() is answered exactly once
// — shed/timeout responses are fulfilled without running the handler, and
// handler exceptions are classified (util::ClassifyException) into kError
// responses rather than propagating into a worker thread.
//
// On top of the hard capacity bound sits an OverloadController
// (overload.hpp): workers feed it the queue delay each request actually
// waited, and when that delay has exceeded the CoDel target for a full
// interval, Submit() sheds adaptively — cold-fingerprint requests first —
// long before the queue fills. Every shed response (adaptive or hard)
// carries a retry_after_ms hint derived from the live delay EWMA.
//
// The queue itself is two-lane with strict warm priority: admitted warm
// (cache-hit) requests are dequeued before any cold request, FIFO within
// each lane. Admission control alone cannot protect warm latency — the
// controller only reacts after a full interval of elevated delay, so a
// FIFO queue makes every warm request ride the cold backlog that built up
// during that window. Priority dequeue bounds a warm request's wait by
// warm work plus at most one in-flight cold build per worker. Cold
// requests can in principle starve while warm arrivals alone saturate the
// workers, but that is exactly the regime where the shedder is refusing
// cold anyway, and queued colds still time out at dequeue if they carry a
// deadline.
//
// Drain() stops admission, lets queued + in-flight requests complete, and
// joins the workers; it is idempotent and also runs from the destructor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "service/metrics.hpp"
#include "service/overload.hpp"
#include "service/request.hpp"
#include "service/scenario_cache.hpp"
#include "util/deadline.hpp"

namespace fadesched::service {

/// What the service learned about a request before queueing it, so the
/// handler does not repeat the work: its fingerprint and, for a frame the
/// cache's payload level answered, the resident scenario, pinned so that
/// an eviction before the run cannot send the request back to a parse.
struct Prepared {
  Fingerprint fingerprint;
  ScenarioCache::ScenarioPtr scenario;  ///< null unless pinned
};

struct BatcherOptions {
  /// Worker threads executing the handler. With ≥ 2, worker 0 serves the
  /// warm lane only: priority dequeue alone still lets every worker pick
  /// up a cold build when the warm lane is momentarily empty, so a warm
  /// request arriving a moment later waits a full build anyway; a
  /// reserved worker bounds warm wait by warm work, period. A single
  /// worker serves both lanes.
  std::size_t num_workers = 4;
  /// Queue slots; a Submit() beyond this sheds. Must be ≥ 1.
  std::size_t queue_capacity = 256;
  /// Applied to requests with deadline_seconds == 0; 0 = no deadline.
  double default_deadline_seconds = 0.0;
  /// Adaptive admission control (overload.hpp). Set queue_delay_target_ms
  /// to 0 to disable and keep only the hard capacity bound.
  OverloadOptions overload;
};

class RequestBatcher {
 public:
  /// Executes one admitted request. Runs on worker threads; may throw
  /// (classified into a kError response). Must not block indefinitely.
  using Handler = std::function<SchedulingResponse(const SchedulingRequest&)>;
  /// A handler that also receives what Submit was given as `prepared`,
  /// or nullptr, so a request is not fingerprinted twice.
  using PreparedHandler = std::function<SchedulingResponse(
      const SchedulingRequest&, const Prepared*)>;

  /// `metrics` may be null. Workers start immediately.
  RequestBatcher(Handler handler, BatcherOptions options = {},
                 ServiceMetrics* metrics = nullptr);
  RequestBatcher(PreparedHandler handler, BatcherOptions options = {},
                 ServiceMetrics* metrics = nullptr);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueues and returns the eventual response. Shed/timeout outcomes
  /// resolve the future with the corresponding status — the future never
  /// carries an exception and is always fulfilled. `cls` feeds the
  /// two-tier shedder; callers that cannot classify pass the default
  /// kWarm, which the controller never sheds (a full queue still can).
  /// `prepared` rides with the request to a PreparedHandler.
  std::future<SchedulingResponse> Submit(
      SchedulingRequest request, RequestClass cls = RequestClass::kWarm,
      std::optional<Prepared> prepared = std::nullopt);

  /// Submit + wait (convenience for synchronous callers).
  SchedulingResponse Execute(SchedulingRequest request,
                             RequestClass cls = RequestClass::kWarm);

  /// Stops admission, completes queued + in-flight work, joins workers.
  /// Idempotent; safe to call concurrently with Submit().
  void Drain();

  [[nodiscard]] bool Draining() const;
  [[nodiscard]] std::size_t QueueDepth() const;

 private:
  struct Item {
    SchedulingRequest request;
    std::optional<Prepared> prepared;
    std::promise<SchedulingResponse> promise;
    util::Deadline deadline;
    std::chrono::steady_clock::time_point enqueued;
    RequestClass cls = RequestClass::kWarm;
  };

  void WorkerLoop(bool warm_only);
  void Reply(Item& item, SchedulingResponse response,
             std::chrono::steady_clock::time_point enqueued) const;

  void SetDepthGauge(std::size_t depth) const;

  PreparedHandler handler_;
  BatcherOptions options_;
  ServiceMetrics* metrics_;
  OverloadController overload_;

  [[nodiscard]] std::size_t DepthLocked() const {
    return warm_queue_.size() + cold_queue_.size();
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // Two-lane queue, strict warm priority (see file comment). The shared
  // capacity bound applies to the sum.
  std::deque<Item> warm_queue_;
  std::deque<Item> cold_queue_;
  bool draining_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fadesched::service
