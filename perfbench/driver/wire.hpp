// Seeded workload inputs, pre-formatted as wire frames before any timing.
//
// Formatting a frame costs about as much CPU as serving it (the scenario
// is printed at %.17g), so fresh topologies cannot be formatted one by
// one. Instead a few base topologies are formatted once, and a request is
// a base topology whose LAST link is replaced by a fresh random link (the
// "tail"). A frame is then four pre-formatted pieces sent with writev:
//
//   header line (id, scheduler, check=)  |  base payload minus its last
//   row  |  the tail's row  |  "END\n"
//
// Because check= is FNV-1a over header + payload, the hash state after
// header + base payload is shared by every tail of a (base, scheduler)
// pair, and each tail costs one short row plus a few hash steps.
// Every tail has a distinct fingerprint, so the server sees a distinct
// topology; ids repeat per base topology (they are correlation tags, not
// part of the content). SelfCheck() compares sampled frames byte-for-byte
// with service::FormatRequestFrame.
#pragma once

#include <sys/uio.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"
#include "testing/corpus.hpp"

namespace perfbench {

class RequestSet {
 public:
  /// `num_bases` uniform topologies of `num_links` links (the paper's
  /// layout and channel defaults), each drawn from the seed.
  RequestSet(std::uint64_t seed, std::size_t num_bases, std::size_t num_links,
             std::vector<std::string> schedulers);

  /// Adds one request per scheduler for base `base`, carrying either the
  /// base's own last link (`fresh` false) or a fresh random one drawn
  /// from (seed, tail ordinal). Returns the index of the first request;
  /// the others follow contiguously in scheduler order.
  std::uint32_t AddJob(std::size_t base, bool fresh);

  [[nodiscard]] std::size_t NumRequests() const { return requests_.size(); }
  [[nodiscard]] std::size_t JobSize() const { return schedulers_.size(); }

  /// The frame of request `i` as writev pieces (valid while *this lives).
  [[nodiscard]] std::array<iovec, 4> Pieces(std::uint32_t i) const;
  [[nodiscard]] std::string Frame(std::uint32_t i) const;

  /// The in-memory request request `i` carries: what the server should
  /// parse out of Frame(i).
  [[nodiscard]] fadesched::service::SchedulingRequest Request(
      std::uint32_t i) const;
  [[nodiscard]] const fadesched::testing::ScenarioCase& BaseScenario(
      std::size_t b) const {
    return bases_[b].scenario;
  }

  /// Compares Frame(i) with FormatRequestFrame(Request(i)) for every
  /// request of each base's first job; returns the first mismatching
  /// index or -1.
  [[nodiscard]] long SelfCheck() const;

 private:
  struct Base {
    fadesched::testing::ScenarioCase scenario;
    std::string prefix;                  ///< payload without its last row
    std::vector<std::uint64_t> hash;     ///< FNV state per scheduler
    std::vector<std::string> header;     ///< "REQUEST id=.. scheduler=.."
  };
  struct Tail {
    std::uint32_t base = 0;
    fadesched::net::Link link;
    std::string row;
  };
  struct Wire {
    std::uint32_t tail = 0;
    std::uint32_t scheduler = 0;
    std::string header_line;  ///< header + " check=<hex>\n"
  };

  std::uint64_t seed_;
  std::vector<std::string> schedulers_;
  std::vector<Base> bases_;
  std::vector<Tail> tails_;
  std::vector<Wire> requests_;
};

}  // namespace perfbench
