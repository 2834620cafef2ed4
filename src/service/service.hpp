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
  /// through the line before END). After the header is validated and
  /// check= verified, a payload the cache's raw level holds for the
  /// header's scheduler is answered like a Submit fast-path hit, without
  /// parsing the payload; while draining, or on a raw miss, the frame is
  /// parsed and submitted. A frame that does not parse never reaches
  /// Submit: it bumps checksum_failures (a check= mismatch, kTransient —
  /// the client should retry) or protocol_errors (anything else, kFatal —
  /// a caller bug) and comes back as an already fulfilled kError response
  /// with id "-". Errors and their precedence are ParseRequestFrame's.
  std::future<SchedulingResponse> SubmitFrame(std::string_view frame);

  /// Graceful shutdown: stop admission, finish queued + in-flight work.
  void Drain();

  [[nodiscard]] ServiceMetrics& Metrics() { return metrics_; }
  [[nodiscard]] ScenarioCache& Cache() { return *cache_; }

 private:
  /// HandleNow's body; `submitted` is the fingerprint Submit computed, or
  /// nullptr to compute it here.
  SchedulingResponse Handle(const SchedulingRequest& request,
                            const Fingerprint* submitted);
  /// Submit's body; a fast-path hit attaches `raw` (when non-null) to the
  /// response entry.
  std::future<SchedulingResponse> SubmitParsed(SchedulingRequest request,
                                               const RawPayload* raw);

  ServiceMetrics metrics_;
  std::unique_ptr<ScenarioCache> cache_;
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace fadesched::service
