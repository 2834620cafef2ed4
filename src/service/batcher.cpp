#include "service/batcher.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

SchedulingResponse MakeFailure(ResponseStatus status, util::ErrorKind kind,
                               std::string message, const std::string& id) {
  SchedulingResponse response;
  response.status = status;
  response.error_kind = kind;
  response.message = std::move(message);
  response.id = id;
  return response;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RequestBatcher::RequestBatcher(Handler handler, BatcherOptions options,
                               ServiceMetrics* metrics)
    : RequestBatcher(
          handler == nullptr
              ? PreparedHandler()
              : PreparedHandler(
                    [plain = std::move(handler)](
                        const SchedulingRequest& request, const Prepared*) {
                      return plain(request);
                    }),
          options, metrics) {}

RequestBatcher::RequestBatcher(PreparedHandler handler,
                               BatcherOptions options, ServiceMetrics* metrics)
    : handler_(std::move(handler)),
      options_(options),
      metrics_(metrics),
      overload_(options.overload, metrics) {
  FS_CHECK_MSG(handler_ != nullptr, "RequestBatcher needs a handler");
  FS_CHECK_MSG(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  if (options_.num_workers == 0) options_.num_workers = 1;
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    const bool warm_only = options_.num_workers >= 2 && i == 0;
    workers_.emplace_back([this, warm_only] { WorkerLoop(warm_only); });
  }
}

RequestBatcher::~RequestBatcher() { Drain(); }

std::future<SchedulingResponse> RequestBatcher::Submit(
    SchedulingRequest request, RequestClass cls,
    std::optional<Prepared> prepared) {
  return AsFuture([&](Responder reply) {
    Submit(std::move(request), cls, std::move(prepared), std::move(reply));
  });
}

void RequestBatcher::Submit(SchedulingRequest request, RequestClass cls,
                            std::optional<Prepared> prepared, Responder reply,
                            std::chrono::nanoseconds queued_for) {
  if (metrics_ != nullptr) {
    metrics_->submitted.fetch_add(1, std::memory_order_relaxed);
  }

  // The rejection, if any, is sent after the lock is released: `reply` is
  // the caller's code.
  std::optional<SchedulingResponse> rejected =
      [&]() -> std::optional<SchedulingResponse> {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      if (metrics_ != nullptr) {
        metrics_->rejected_draining.fetch_add(1, std::memory_order_relaxed);
      }
      return MakeFailure(ResponseStatus::kShed, util::ErrorKind::kInterrupted,
                         "service draining — not accepting new requests",
                         request.id);
    }
    const AdmitDecision decision = overload_.Admit(
        cls, DepthLocked(), std::chrono::steady_clock::now());
    if (!decision.admit) {
      if (metrics_ != nullptr) {
        metrics_->shed_overload.fetch_add(1, std::memory_order_relaxed);
        if (cls == RequestClass::kCold) {
          metrics_->shed_cold.fetch_add(1, std::memory_order_relaxed);
        }
      }
      SchedulingResponse shed = MakeFailure(
          ResponseStatus::kShed, util::ErrorKind::kTransient,
          std::string("overloaded — shed ") +
              (cls == RequestClass::kCold ? "cold" : "warm") +
              " request, retry later",
          request.id);
      shed.retry_after_ms = decision.retry_after_ms;
      return shed;
    }
    // Hard bounds: the shared capacity, plus a bulkhead on the cold lane.
    // Warm-priority dequeue starves the cold lane under warm pressure, so
    // without its own cap a pile of slow cold builds would fill the
    // shared bound and hard-shed *warm* admissions — the inversion of
    // what the two-tier shedder promises.
    const std::size_t cold_capacity =
        std::max<std::size_t>(1, options_.queue_capacity / 2);
    const bool cold_lane_full = cls == RequestClass::kCold &&
                                cold_queue_.size() >= cold_capacity;
    if (cold_lane_full || DepthLocked() >= options_.queue_capacity) {
      if (metrics_ != nullptr) {
        metrics_->shed.fetch_add(1, std::memory_order_relaxed);
        if (cls == RequestClass::kCold) {
          metrics_->shed_cold.fetch_add(1, std::memory_order_relaxed);
        }
      }
      SchedulingResponse shed = MakeFailure(
          ResponseStatus::kShed, util::ErrorKind::kTransient,
          cold_lane_full
              ? "cold lane full (" + std::to_string(cold_capacity) +
                    " pending builds) — shed, retry later"
              : "queue full (" + std::to_string(options_.queue_capacity) +
                    " pending) — shed, retry later",
          request.id);
      shed.retry_after_ms = overload_.RetryAfterMs();
      return shed;
    }
    if (metrics_ != nullptr) {
      metrics_->admitted.fetch_add(1, std::memory_order_relaxed);
    }
    Item item;
    const double deadline_seconds = request.deadline_seconds > 0.0
                                        ? request.deadline_seconds
                                        : options_.default_deadline_seconds;
    item.deadline = util::Deadline::After(deadline_seconds);
    item.enqueued = std::chrono::steady_clock::now() - queued_for;
    item.request = std::move(request);
    item.prepared = std::move(prepared);
    item.reply = std::move(reply);
    item.cls = cls;
    (cls == RequestClass::kCold ? cold_queue_ : warm_queue_)
        .push_back(std::move(item));
    SetDepthGauge(DepthLocked());
    return std::nullopt;
  }();
  if (rejected) {
    reply(std::move(*rejected));
    return;
  }
  // notify_all, not notify_one: workers are heterogeneous (a reserved
  // warm-only worker may be the one woken for a cold item, which it will
  // ignore), so a single notify can be swallowed by the wrong waiter.
  cv_.notify_all();
}

SchedulingResponse RequestBatcher::Execute(SchedulingRequest request,
                                           RequestClass cls) {
  return Submit(std::move(request), cls).get();
}

void RequestBatcher::Reply(
    Item& item, SchedulingResponse response,
    std::chrono::steady_clock::time_point enqueued) const {
  if (metrics_ != nullptr) {
    const double seconds = SecondsSince(enqueued);
    metrics_->total_latency.Record(seconds);
    (item.cls == RequestClass::kCold ? metrics_->cold_total_latency
                                     : metrics_->warm_total_latency)
        .Record(seconds);
  }
  item.reply(std::move(response));
}

void RequestBatcher::WorkerLoop(bool warm_only) {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this, warm_only] {
        return draining_ ||
               (warm_only ? !warm_queue_.empty() : DepthLocked() > 0);
      });
      // Predicate held, so an empty view of the queue implies draining.
      // A reserved worker exits with colds still queued — the general
      // workers own them (reservation requires ≥ 2 workers).
      if (warm_only ? warm_queue_.empty() : DepthLocked() == 0) return;
      std::deque<Item>& lane =
          warm_queue_.empty() ? cold_queue_ : warm_queue_;
      item = std::move(lane.front());
      lane.pop_front();
      SetDepthGauge(DepthLocked());
    }

    const double queue_delay = SecondsSince(item.enqueued);
    overload_.ObserveQueueDelay(queue_delay, std::chrono::steady_clock::now());
    if (metrics_ != nullptr) {
      metrics_->queue_latency.Record(queue_delay);
    }

    if (item.deadline.Expired()) {
      if (metrics_ != nullptr) {
        metrics_->timed_out.fetch_add(1, std::memory_order_relaxed);
      }
      Reply(item,
            MakeFailure(ResponseStatus::kTimeout, util::ErrorKind::kTimeout,
                        "deadline expired while queued", item.request.id),
            item.enqueued);
      continue;
    }

    const auto service_start = std::chrono::steady_clock::now();
    SchedulingResponse response;
    try {
      response =
          handler_(item.request, item.prepared ? &*item.prepared : nullptr);
      response.id = item.request.id;
    } catch (...) {
      const util::ErrorKind kind =
          util::ClassifyException(std::current_exception());
      std::string what = "handler failed";
      try {
        throw;
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      response = MakeFailure(ResponseStatus::kError, kind, std::move(what),
                             item.request.id);
    }
    if (metrics_ != nullptr) {
      metrics_->service_latency.Record(SecondsSince(service_start));
      if (response.Ok()) {
        metrics_->completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        metrics_->failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Reply(item, std::move(response), item.enqueued);
  }
}

void RequestBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool RequestBatcher::Draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t RequestBatcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return DepthLocked();
}

void RequestBatcher::SetDepthGauge(std::size_t depth) const {
  if (metrics_ != nullptr) {
    metrics_->queue_depth.store(depth, std::memory_order_relaxed);
  }
}

}  // namespace fadesched::service
