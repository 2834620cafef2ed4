#include "service/service.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "sched/registry.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

/// A frame no request header could be attributed to answers with id "-".
SchedulingResponse FrameRejection(util::ErrorKind kind, const char* message) {
  SchedulingResponse response;
  response.status = ResponseStatus::kError;
  response.error_kind = kind;
  response.message = message;
  response.id = "-";
  return response;
}

using Clock = std::chrono::steady_clock;

/// Answers a response-cache hit, its id already stamped, on the calling
/// thread: the one place an inline hit is counted and timed from `since`.
void ServeHit(ServiceMetrics& metrics, SchedulingResponse response,
              Clock::time_point since, const Responder& reply) {
  response.cache_hit = true;
  metrics.submitted.fetch_add(1, std::memory_order_relaxed);
  metrics.admitted.fetch_add(1, std::memory_order_relaxed);
  metrics.completed.fetch_add(1, std::memory_order_relaxed);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - since).count();
  metrics.service_latency.Record(seconds);
  metrics.total_latency.Record(seconds);
  metrics.warm_total_latency.Record(seconds);
  reply(std::move(response));
}

}  // namespace

SchedulingService::SchedulingService(ServiceOptions options)
    : cache_(std::make_unique<ScenarioCache>(options.cache, &metrics_)),
      batcher_(std::make_unique<RequestBatcher>(
          [this](const SchedulingRequest& request, const Prepared* prepared) {
            return Handle(request, prepared);
          },
          options.batcher, &metrics_)) {}

SchedulingResponse SchedulingService::HandleNow(
    const SchedulingRequest& request) {
  return Handle(request, nullptr);
}

SchedulingResponse SchedulingService::Handle(const SchedulingRequest& request,
                                             const Prepared* prepared) {
  SchedulingResponse response;
  response.id = request.id;
  try {
    if (!sched::IsRegisteredScheduler(request.scheduler)) {
      response.status = ResponseStatus::kError;
      response.error_kind = util::ErrorKind::kFatal;
      response.message = "unknown scheduler '" + request.scheduler + "'";
      return response;
    }
    Fingerprint fp = prepared != nullptr ? prepared->fingerprint
                                         : FingerprintRequest(request);

    if (cache_->LookupResponse(fp, &response)) {
      response.id = request.id;
      response.cache_hit = true;
      return response;
    }

    // A pinned scenario stands in for the request's, which a frame the
    // payload level answered was never parsed into.
    const ScenarioCache::ScenarioPtr entry =
        cache_->ObtainScenario(fp, request, nullptr,
                               prepared != nullptr ? prepared->scenario
                                                   : nullptr);
    // The response entry shares the scenario entry's canonical blob (the
    // bytes are equal; ObtainScenario compared them).
    fp.canonical_scenario = entry->canonical_scenario;
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
  return AsFuture([&](Responder reply) {
    SubmitParsed(std::move(request), nullptr, std::move(reply), {});
  });
}

void SchedulingService::SubmitParsed(SchedulingRequest request,
                                     const RawPayload* raw, Responder reply,
                                     std::chrono::nanoseconds queued_for) {
  // The fingerprint (a canonical serialization plus a WordHash64 pass:
  // about 8 µs at N=600) is computed once here and rides the batcher to
  // the handler, so an admitted miss does not pay for it again. A request
  // whose fingerprint throws is submitted kWarm without one, so the
  // handler, not the shedder, reports the real error.
  const Clock::time_point submitted_at = Clock::now() - queued_for;
  std::optional<SchedulingResponse> hit;
  std::optional<Prepared> prepared;
  RequestClass cls = RequestClass::kWarm;
  try {
    Fingerprint fp = FingerprintRequest(request);

    // Fast path: a resident response is a pure lookup, so it is served
    // inline on the caller thread. Routing it through the worker queue
    // would price every cache hit at the queue's current delay — the
    // exact coupling of warm latency to cold backlog that the two-tier
    // design exists to break. Under drain we fall through so the batcher
    // issues the canonical typed rejection and the admission ledger
    // stays consistent.
    SchedulingResponse response;
    const bool resident =
        !batcher_->Draining() &&
        cache_->LookupResponse(fp, &response, /*count_miss=*/false);
    const bool warm = resident || cache_->IsWarm(fp);
    // Only a payload whose fingerprint is resident is kept: its repeats,
    // under any scheduler, then skip the parse, and a one-shot frame
    // copies nothing.
    if (warm && raw != nullptr) cache_->AttachPayload(*raw, fp);
    // Assigned last: a throw leaves the request kWarm and unprepared.
    if (resident) {
      response.id = request.id;
      hit = std::move(response);
    }
    cls = warm ? RequestClass::kWarm : RequestClass::kCold;
    prepared = Prepared{std::move(fp), nullptr};
  } catch (...) {
  }
  if (hit) {
    ServeHit(metrics_, std::move(*hit), submitted_at, reply);
    return;
  }
  batcher_->Submit(std::move(request), cls, std::move(prepared),
                   std::move(reply), queued_for);
}

std::future<SchedulingResponse> SchedulingService::SubmitFrame(
    std::string_view frame) {
  return AsFuture([&](Responder reply) {
    SubmitFrame(frame, std::move(reply), /*may_parse=*/true);
  });
}

bool SchedulingService::SubmitFrame(std::string_view frame, Responder reply,
                                    bool may_parse,
                                    std::chrono::nanoseconds queued_for) {
  const Clock::time_point received_at = Clock::now() - queued_for;
  SchedulingRequest request;
  RawPayload raw;
  std::optional<SchedulingResponse> hit;
  std::optional<Prepared> resident;
  try {
    const RequestHeader header = ParseRequestHeader(frame);
    raw = {WordHash64(header.payload), header.payload};
    // The payload level: a payload byte-identical to one that already
    // parsed parses again, so after the header checks only check= can
    // still fail. It is probed first, and check= is verified only on a
    // match, before anything is touched or counted. A mismatch, a drain,
    // a payload miss, a fingerprint no longer resident or an unlocatable
    // check token takes the parse path, which folds check= into its one
    // pass over the payload and reports errors in their usual order.
    std::optional<Fingerprint> fp;
    if (header.check_state && !batcher_->Draining()) {
      fp = cache_->LookupPayload(raw, header.scheduler,
                                 RawCheck{*header.check_state, header.check});
    }
    SchedulingResponse response;
    ScenarioCache::ScenarioPtr scenario;
    if (fp && cache_->LookupResponse(*fp, &response, /*count_miss=*/false)) {
      response.id = header.id;
      hit = std::move(response);
    } else if (fp && (scenario = cache_->PeekScenario(*fp)) != nullptr) {
      request.id = header.id;
      request.scheduler = header.scheduler;
      request.deadline_seconds = header.deadline_seconds;
      resident = Prepared{std::move(*fp), std::move(scenario)};
    } else if (!may_parse) {
      return false;
    } else {
      request = ParseRequestBody(header);
    }
  } catch (const util::HarnessError& e) {
    (e.kind() == util::ErrorKind::kTransient ? metrics_.checksum_failures
                                             : metrics_.protocol_errors)
        .fetch_add(1, std::memory_order_relaxed);
    reply(FrameRejection(e.kind(), e.what()));
    return true;
  } catch (const std::exception& e) {
    metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    reply(FrameRejection(util::ErrorKind::kFatal, e.what()));
    return true;
  }
  if (hit || resident) {
    metrics_.raw_hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (hit) {
    ServeHit(metrics_, std::move(*hit), received_at, reply);
  } else if (resident) {
    batcher_->Submit(std::move(request), RequestClass::kWarm,
                     std::move(resident), std::move(reply), queued_for);
  } else {
    SubmitParsed(std::move(request), &raw, std::move(reply), queued_for);
  }
  return true;
}

void SchedulingService::Drain() { batcher_->Drain(); }

}  // namespace fadesched::service
