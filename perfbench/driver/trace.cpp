#include "trace.hpp"

#include <cstdio>

namespace perfbench {
namespace {

std::int64_t NowNs(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

std::int32_t Tracer::Open(std::string name, std::uint64_t request) {
  Record record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request;
  records_.push_back(std::move(record));
  const auto index = static_cast<std::int32_t>(records_.size() - 1);
  open_.push_back(index);
  records_.back().start_ns = NowNs(epoch_);
  return index;
}

void Tracer::Close(std::int32_t index) {
  records_[static_cast<std::size_t>(index)].end_ns = NowNs(epoch_);
  open_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ns[static_cast<std::size_t>(record.parent)] +=
          record.end_ns - record.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    SelfTime& self = out[record.name];
    self.total_us +=
        1e-3 * static_cast<double>(record.end_ns - record.start_ns - child_ns[i]);
    ++self.spans;
  }
  return out;
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "{\"span\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 i, r.name.c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), r.parent,
                 static_cast<unsigned long long>(r.request));
  }
  std::fclose(out);
}

}  // namespace perfbench
