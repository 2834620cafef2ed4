#include "service/chaos/retry_client.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "service/protocol.hpp"
#include "util/error.hpp"

namespace fadesched::service::chaos {

namespace {

/// An error response that can only mean our frame was damaged in flight:
/// checksum mismatches arrive as kTransient (handled by kind), and fatal
/// protocol errors that name the frame ("request frame line 1: ...",
/// TruncatedFrameMessage's) are impossible for a
/// client whose frames come from FormatRequestFrame — so they are
/// retried as corruption rather than surfaced as caller bugs.
bool LooksLikeWireCorruption(const SchedulingResponse& response) {
  return response.error_kind == util::ErrorKind::kFatal &&
         response.message.find("request frame") != std::string::npos;
}

}  // namespace

void RetryOptions::Validate() const {
  if (max_attempts == 0) {
    throw util::FatalError("retry options: max_attempts must be >= 1");
  }
  if (!(initial_backoff_seconds >= 0.0) || !(max_backoff_seconds >= 0.0)) {
    throw util::FatalError("retry options: backoff must be non-negative");
  }
  if (!(backoff_multiplier >= 1.0)) {
    throw util::FatalError("retry options: backoff_multiplier must be >= 1");
  }
  if (!(jitter_fraction >= 0.0 && jitter_fraction < 1.0)) {
    throw util::FatalError("retry options: jitter_fraction must be in [0, 1)");
  }
}

RetryingClient::RetryingClient(std::unique_ptr<Transport> transport,
                               RetryOptions options, ServiceMetrics* metrics)
    : transport_(std::move(transport)),
      options_(options),
      metrics_(metrics),
      jitter_(options.jitter_seed) {
  options_.Validate();
}

double RetryingClient::NextBackoffSeconds(std::size_t attempt) {
  double backoff;
  if (hinted_backoff_seconds_ > 0.0) {
    // A server hint replaces the blind ladder for this one backoff: the
    // service derived it from its live queue-delay EWMA, so it tracks
    // actual congestion. Consumed once — a hint-less failure on the next
    // attempt falls back to the ladder.
    backoff = hinted_backoff_seconds_;
    hinted_backoff_seconds_ = 0.0;
    ++stats_.retry_after_honored;
  } else {
    backoff = options_.initial_backoff_seconds;
    for (std::size_t i = 1;
         i < attempt && backoff < options_.max_backoff_seconds; ++i) {
      backoff *= options_.backoff_multiplier;
    }
    if (backoff > options_.max_backoff_seconds) {
      backoff = options_.max_backoff_seconds;
    }
  }
  const double u = static_cast<double>(jitter_.Next() >> 11) * 0x1.0p-53;
  return backoff * (1.0 + options_.jitter_fraction * (2.0 * u - 1.0));
}

SchedulingResponse RetryingClient::Call(const SchedulingRequest& request) {
  // Formatted once: every attempt re-sends byte-identical wire content,
  // which is what makes the retry idempotent (same content → same
  // fingerprint → same cached, byte-identical response).
  const std::string frame = FormatRequestFrame(request);
  stats_ = CallStats{};
  hinted_backoff_seconds_ = 0.0;
  std::string last_error = "no attempt made";

  for (std::size_t attempt = 1; attempt <= options_.max_attempts;
       ++attempt) {
    stats_.attempts = attempt;
    try {
      if (!transport_->Connected()) {
        transport_->Connect();
        if (attempt > 1) ++stats_.reconnects;
      }
      transport_->Send(frame);
      for (std::size_t reads = 0; reads <= options_.max_stale_reads;
           ++reads) {
        const std::string line = transport_->ReadLine();
        SchedulingResponse response;
        try {
          response = ParseResponseLine(line);
        } catch (const util::HarnessError& e) {
          // Unparseable or checksum-failing line: the server formats
          // every line it writes, so this is wire damage, not a server
          // bug.
          ++stats_.corruption_detected;
          throw util::TransientError(std::string("response corrupted: ") +
                                     e.what());
        }
        if (response.id != request.id && response.id != "-") {
          // A stale or duplicated line from an earlier attempt; the
          // response for *this* request is still behind it.
          ++stats_.stale_discarded;
          continue;
        }
        if (!response.Ok()) {
          if (LooksLikeWireCorruption(response)) {
            ++stats_.corruption_detected;
            throw util::TransientError("request corrupted in flight: " +
                                       response.message);
          }
          if (response.error_kind != util::ErrorKind::kFatal) {
            // Shed, deadline timeout, drain, transient execution
            // failure: retryable, preserving the kind for the final
            // exhaustion error.
            if (response.retry_after_ms > 0.0) {
              hinted_backoff_seconds_ = response.retry_after_ms * 1e-3;
            }
            throw util::HarnessError(
                response.error_kind,
                ResponseStatusName(response.status) +
                    std::string(" response: ") + response.message);
          }
        }
        // Terminal: OK, or a genuine fatal error response the caller
        // must see (unknown scheduler, infeasible instance, ...).
        if (attempt > 1 && metrics_ != nullptr) {
          metrics_->chaos_recovered.fetch_add(1, std::memory_order_relaxed);
        }
        return response;
      }
      throw util::TransientError(
          "discarded " + std::to_string(options_.max_stale_reads + 1) +
          " stale response line(s) without seeing id=" + request.id);
    } catch (const util::HarnessError& e) {
      if (e.kind() == util::ErrorKind::kFatal) throw;  // local usage bug
      last_error = std::string(util::ErrorKindName(e.kind())) + ": " +
                   e.what();
      // Reconnect-on-retry: a failed attempt may have left a partial
      // frame or an unread response in the connection; dropping it is
      // what keeps stale bytes from leaking into the next attempt.
      transport_->Close();
      if (attempt < options_.max_attempts) {
        const double backoff = NextBackoffSeconds(attempt);
        stats_.backoffs.push_back(backoff);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
  throw util::TransientError(
      "retries exhausted after " + std::to_string(options_.max_attempts) +
      " attempt(s); last error — " + last_error);
}

}  // namespace fadesched::service::chaos
