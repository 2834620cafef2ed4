#include "wire.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "net/scenario.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "service/protocol.hpp"

namespace perfbench {
namespace {

namespace net = fadesched::net;
namespace service = fadesched::service;
namespace testing = fadesched::testing;

constexpr char kEnd[] = "END\n";

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return fadesched::rng::SplitMix64(a * 0x9e3779b97f4a7c15ULL ^ b).Next();
}

net::LinkSet UniformLinks(std::size_t n, std::uint64_t stream) {
  fadesched::rng::Xoshiro256 gen(stream);
  return net::MakeUniformScenario(n, net::UniformScenarioParams{}, gen);
}

/// The payload row FormatScenario prints for `link` (with its newline).
std::string FormatRow(const net::Link& link) {
  testing::ScenarioCase single;
  single.links.Add(link);
  const std::string text = testing::FormatScenario(single);
  const std::size_t start = text.rfind('\n', text.size() - 2) + 1;
  return text.substr(start);
}

}  // namespace

RequestSet::RequestSet(std::uint64_t seed, std::size_t num_bases,
                       std::size_t num_links,
                       std::vector<std::string> schedulers)
    : seed_(seed), schedulers_(std::move(schedulers)) {
  bases_.resize(num_bases);
  for (std::size_t b = 0; b < num_bases; ++b) {
    Base& base = bases_[b];
    base.scenario.links = UniformLinks(num_links, Mix(seed, b));
    base.scenario.description = "perfbench base topology";
    std::string payload = testing::FormatScenario(base.scenario);
    const std::size_t last_row = payload.rfind('\n', payload.size() - 2) + 1;
    base.prefix = payload.substr(0, last_row);
    for (const std::string& scheduler : schedulers_) {
      const std::string header =
          "REQUEST id=t" + std::to_string(b) + " scheduler=" + scheduler;
      base.header.push_back(header);
      base.hash.push_back(service::Fnv1a64(header + '\n' + base.prefix));
    }
  }
}

std::uint32_t RequestSet::AddJob(std::size_t base_index, bool fresh) {
  const Base& base = bases_.at(base_index);
  Tail tail;
  tail.base = static_cast<std::uint32_t>(base_index);
  const net::LinkSet& links = base.scenario.links;
  tail.link = fresh ? UniformLinks(1, Mix(seed_ ^ 0x7a11, tails_.size())).At(0)
                    : links.At(links.Size() - 1);
  tail.row = FormatRow(tail.link);
  tails_.push_back(std::move(tail));

  const auto first = static_cast<std::uint32_t>(requests_.size());
  for (std::uint32_t s = 0; s < schedulers_.size(); ++s) {
    Wire wire;
    wire.tail = static_cast<std::uint32_t>(tails_.size() - 1);
    wire.scheduler = s;
    const std::uint64_t check =
        service::Fnv1a64(tails_.back().row, base.hash[s]);
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, check);
    wire.header_line = base.header[s] + " check=" + hex + "\n";
    requests_.push_back(std::move(wire));
  }
  return first;
}

std::array<iovec, 4> RequestSet::Pieces(std::uint32_t i) const {
  const Wire& wire = requests_[i];
  const Tail& tail = tails_[wire.tail];
  const Base& base = bases_[tail.base];
  const auto piece = [](const std::string& s) {
    return iovec{const_cast<char*>(s.data()), s.size()};
  };
  return {piece(wire.header_line), piece(base.prefix), piece(tail.row),
          iovec{const_cast<char*>(kEnd), sizeof(kEnd) - 1}};
}

std::string RequestSet::Frame(std::uint32_t i) const {
  std::string frame;
  for (const iovec& piece : Pieces(i)) {
    frame.append(static_cast<const char*>(piece.iov_base), piece.iov_len);
  }
  return frame;
}

service::SchedulingRequest RequestSet::Request(std::uint32_t i) const {
  const Wire& wire = requests_[i];
  const Tail& tail = tails_[wire.tail];
  const Base& base = bases_[tail.base];
  service::SchedulingRequest request;
  const net::LinkSet& links = base.scenario.links;
  std::vector<net::Link> copy;
  copy.reserve(links.Size());
  for (net::LinkId l = 0; l + 1 < links.Size(); ++l) copy.push_back(links.At(l));
  copy.push_back(tail.link);
  request.scenario.links = net::LinkSet(copy);
  request.scenario.params = base.scenario.params;
  request.scenario.description = base.scenario.description;
  request.scheduler = schedulers_[wire.scheduler];
  request.id = "t" + std::to_string(tail.base);
  return request;
}

long RequestSet::SelfCheck() const {
  std::vector<long> first_tail(bases_.size(), -1);
  for (std::uint32_t i = 0; i < requests_.size(); ++i) {
    const std::uint32_t tail = requests_[i].tail;
    long& first = first_tail[tails_[tail].base];
    if (first < 0) first = tail;
    if (first != static_cast<long>(tail)) continue;
    if (Frame(i) != service::FormatRequestFrame(Request(i))) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace perfbench
