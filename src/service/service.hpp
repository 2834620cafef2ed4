// The scheduling service: fingerprint → response cache → scenario cache →
// registry-resolved scheduler, fronted by the RequestBatcher.
//
// Determinism contract: identical request content produces a byte-
// identical schedule whether it is computed fresh, recomputed after an
// eviction, or served from the response cache — the cache memoizes work,
// never changes answers. This holds because (a) the fingerprint is over
// canonical scenario bytes, (b) every scheduler is deterministic for a
// fixed instance, and (c) a cached engine is bit-identical to a rebuilt
// one (see channel::ObtainEngine).
//
// HandleNow() never throws: every failure is classified through the
// util::error taxonomy into a kError response, so a malformed or oversized
// instance poisons one response, not the worker thread.
#pragma once

#include <future>
#include <memory>
#include <string_view>

#include "service/batcher.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "service/scenario_cache.hpp"

namespace fadesched::service {

struct ServiceOptions {
  CacheOptions cache;
  BatcherOptions batcher;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceOptions options = {});

  /// The full request pipeline, synchronously on the calling thread
  /// (tests and the bench call this). Never throws.
  SchedulingResponse HandleNow(const SchedulingRequest& request);

  /// Admission-controlled path through the batcher (see batcher.hpp for
  /// the shed/timeout contract). The future is always fulfilled. Submit
  /// fingerprints the request once; a response-cache hit is served inline
  /// on the calling thread (the future comes back already fulfilled), so
  /// warm latency never rides the worker queue. Misses are classified
  /// warm/cold (a pure cache peek) for the two-tier shedder — under
  /// overload, cold requests, the ones that would trigger a full engine
  /// build, are shed first — and carry the fingerprint to the worker.
  std::future<SchedulingResponse> Submit(SchedulingRequest request);

  /// The front-ends' one entry point for a received frame (header line
  /// through the line before END). After the header is validated, a
  /// payload the cache's payload level holds, with check= verified
  /// against it, is not parsed: under the header's scheduler it is
  /// answered like a Submit fast-path hit when the response is resident,
  /// or queued as warm with its resident scenario pinned. While
  /// draining, on a payload miss, or when neither is resident, the frame
  /// is parsed and submitted, and a parsed frame whose fingerprint is
  /// resident leaves its payload in the cache. A frame that does not
  /// parse never reaches Submit: it bumps checksum_failures (a check=
  /// mismatch, kTransient — the client should retry) or protocol_errors
  /// (anything else, kFatal — a caller bug) and comes back as an already
  /// fulfilled kError response with id "-". Errors and their precedence
  /// are ParseRequestFrame's.
  std::future<SchedulingResponse> SubmitFrame(std::string_view frame);

  /// Graceful shutdown: stop admission, finish queued + in-flight work.
  void Drain();

  [[nodiscard]] ServiceMetrics& Metrics() { return metrics_; }
  [[nodiscard]] ScenarioCache& Cache() { return *cache_; }

 private:
  /// HandleNow's body; `prepared` is what Submit or SubmitFrame
  /// computed, or nullptr to fingerprint the request here.
  SchedulingResponse Handle(const SchedulingRequest& request,
                            const Prepared* prepared);
  /// Submit's body; when the fingerprint is resident, `raw` (the payload
  /// of the frame the request was parsed from, when non-null) is attached
  /// to it.
  std::future<SchedulingResponse> SubmitParsed(SchedulingRequest request,
                                               const RawPayload* raw);

  ServiceMetrics metrics_;
  std::unique_ptr<ScenarioCache> cache_;
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace fadesched::service
