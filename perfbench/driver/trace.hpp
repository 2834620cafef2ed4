// In-memory span recorder for the traced replay.
//
// A span is (name, start, end, parent, request id). Spans nest through a
// stack: a span opened while another is open becomes its child. They stay
// in memory until WriteJsonLines at the end of the run; SelfTimes then
// derives each span's self time (its duration minus the part its children
// cover). A null Tracer* makes every Span a no-op, which is how the
// untraced replay runs the same code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  /// Per span name: summed self time and the number of spans.
  struct SelfTime {
    double total_us = 0.0;
    std::size_t spans = 0;
  };

  explicit Tracer(std::size_t reserve = 1 << 16) { records_.reserve(reserve); }

  std::int32_t Open(std::string name, std::uint64_t request);
  void Close(std::int32_t index);
  /// Names a span after the call it wraps returned (a cache probe is a
  /// lookup or a store depending on whether it hit).
  void Rename(std::int32_t index, std::string name) {
    records_[static_cast<std::size_t>(index)].name = std::move(name);
  }

  [[nodiscard]] std::map<std::string, SelfTime> SelfTimes() const;

  void WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(std::move(name), request) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Rename(std::string name) {
    if (tracer_ != nullptr) tracer_->Rename(index_, std::move(name));
  }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
