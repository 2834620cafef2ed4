#include "service/service.hpp"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "sched/registry.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

std::future<SchedulingResponse> Fulfilled(SchedulingResponse response) {
  std::promise<SchedulingResponse> ready;
  ready.set_value(std::move(response));
  return ready.get_future();
}

/// A frame no request header could be attributed to answers with id "-".
SchedulingResponse FrameRejection(util::ErrorKind kind, const char* message) {
  SchedulingResponse response;
  response.status = ResponseStatus::kError;
  response.error_kind = kind;
  response.message = message;
  response.id = "-";
  return response;
}

}  // namespace

SchedulingService::SchedulingService(ServiceOptions options)
    : cache_(std::make_unique<ScenarioCache>(options.cache, &metrics_)),
      batcher_(std::make_unique<RequestBatcher>(
          [this](const SchedulingRequest& request) {
            return HandleNow(request);
          },
          options.batcher, &metrics_)) {}

SchedulingResponse SchedulingService::HandleNow(
    const SchedulingRequest& request) {
  SchedulingResponse response;
  response.id = request.id;
  try {
    if (!sched::IsRegisteredScheduler(request.scheduler)) {
      response.status = ResponseStatus::kError;
      response.error_kind = util::ErrorKind::kFatal;
      response.message = "unknown scheduler '" + request.scheduler + "'";
      return response;
    }
    const Fingerprint fp = FingerprintRequest(request);

    if (cache_->LookupResponse(fp, &response)) {
      response.id = request.id;
      response.cache_hit = true;
      return response;
    }

    // Brownout: while the overload controller says the queue delay is
    // critical, degrade this miss to a cheap build — the SIMD precision
    // ladder for matrix backends (keeps matrix-speed queries), the
    // tables-only build otherwise. Schedules are identical and factors
    // stay within the cross-backend ULP contract; hits are untouched.
    const bool degrade_build =
        batcher_ != nullptr && batcher_->Overload().Brownout();
    bool scenario_hit = false;
    const ScenarioCache::ScenarioPtr entry =
        cache_->ObtainScenario(fp, request, &scenario_hit, degrade_build);
    if (!scenario_hit && degrade_build) {
      metrics_.brownout_builds.fetch_add(1, std::memory_order_relaxed);
    }
    channel::EngineOptions engine_options = entry->engine->Options();
    // Aliasing: the engine pointer shares the entry's lifetime, so an
    // eviction mid-schedule cannot free state the scheduler is reading.
    engine_options.shared = std::shared_ptr<const channel::InterferenceEngine>(
        entry, &*entry->engine);
    const sched::SchedulerPtr scheduler =
        sched::MakeScheduler(fp.scheduler, engine_options);

    const sched::ScheduleResult result =
        scheduler->Schedule(entry->links, entry->params);
    response.status = ResponseStatus::kOk;
    response.schedule = result.schedule;
    response.claimed_rate = result.claimed_rate;
    response.cache_hit = false;
    cache_->StoreResponse(fp, response);
    return response;
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    response.status = ResponseStatus::kError;
    response.error_kind = util::ClassifyException(error);
    response.schedule.clear();
    response.claimed_rate = 0.0;
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      response.message = e.what();
    } catch (...) {
      response.message = "unknown failure";
    }
    return response;
  }
}

std::future<SchedulingResponse> SchedulingService::Submit(
    SchedulingRequest request) {
  // Fingerprinting costs a canonical serialization (~µs), paid again
  // inside HandleNow on admitted requests — accepted: admission cannot
  // reuse it without threading cache state through the request, and
  // sheds/fast-path hits (the cases this exists for) never reach
  // HandleNow at all. A request whose fingerprint throws is submitted
  // kWarm so the handler, not the shedder, reports the real error.
  try {
    const auto submitted_at = std::chrono::steady_clock::now();
    const Fingerprint fp = FingerprintRequest(request);

    // Fast path: a resident response is a pure lookup, so it is served
    // inline on the caller thread. Routing it through the worker queue
    // would price every cache hit at the queue's current delay — the
    // exact coupling of warm latency to cold backlog that the two-tier
    // design exists to break. Under drain we fall through so the batcher
    // issues the canonical typed rejection and the admission ledger
    // stays consistent.
    SchedulingResponse response;
    if (!batcher_->Draining() &&
        cache_->LookupResponse(fp, &response, /*count_miss=*/false)) {
      response.id = request.id;
      response.cache_hit = true;
      metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
      metrics_.admitted.fetch_add(1, std::memory_order_relaxed);
      metrics_.completed.fetch_add(1, std::memory_order_relaxed);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        submitted_at)
              .count();
      metrics_.service_latency.Record(seconds);
      metrics_.total_latency.Record(seconds);
      metrics_.warm_total_latency.Record(seconds);
      return Fulfilled(std::move(response));
    }

    const RequestClass cls =
        cache_->IsWarm(fp) ? RequestClass::kWarm : RequestClass::kCold;
    return batcher_->Submit(std::move(request), cls);
  } catch (...) {
    return batcher_->Submit(std::move(request), RequestClass::kWarm);
  }
}

std::future<SchedulingResponse> SchedulingService::SubmitFrame(
    std::string_view frame) {
  SchedulingRequest request;
  try {
    request = ParseRequestFrame(frame);
  } catch (const util::HarnessError& e) {
    (e.kind() == util::ErrorKind::kTransient ? metrics_.checksum_failures
                                             : metrics_.protocol_errors)
        .fetch_add(1, std::memory_order_relaxed);
    return Fulfilled(FrameRejection(e.kind(), e.what()));
  } catch (const std::exception& e) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return Fulfilled(FrameRejection(util::ErrorKind::kFatal, e.what()));
  }
  return Submit(std::move(request));
}

void SchedulingService::Drain() { batcher_->Drain(); }

}  // namespace fadesched::service
