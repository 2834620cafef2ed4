// Pluggable per-link arrival processes for the slotted dynamics simulator.
//
// Four families spanning the stability literature's standard inputs:
//
//   kBernoulli    — i.i.d. one-packet arrivals, the memoryless baseline
//                   every stability proof starts from.
//   kPoissonBatch — Poisson(λ) batch per slot: same mean, unbounded batch
//                   size, so queues see burst variance even at low load.
//   kOnOff        — Markov-modulated on/off source: bursts at peak rate
//                   λ/duty while ON, silent while OFF, geometric sojourns
//                   with the stationary ON-fraction equal to `duty_cycle`.
//                   Same long-run rate as Bernoulli, much burstier — the
//                   canonical "bursty traffic" stressor.
//   kLeakyBucket  — adversarial (σ, ρ)-conforming source: tokens accrue at
//                   rate ρ = `rate`, and the source releases the whole
//                   accumulated burst at once (when the bucket fills, or
//                   earlier with `release_probability`). This is the
//                   worst-case burst pattern a (σ, ρ) regulator admits,
//                   the adversarial-queueing side of the frontier.
//
// Every link owns an independent substream derived from the process seed
// by the repo's SplitMix64 → xoshiro discipline, so arrivals at link i are
// byte-identical regardless of how many other links exist, which links
// are active, or which scheduler runs — the property the churn-replay and
// trace determinism tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/link_set.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"

namespace fadesched::dynamics {

enum class ArrivalFamily {
  kBernoulli,
  kPoissonBatch,
  kOnOff,
  kLeakyBucket,
};

/// Family name for tables / CLI flags ("bernoulli", "poisson", "onoff",
/// "leaky").
const char* ArrivalFamilyName(ArrivalFamily family);

/// Parses a family name; returns false (leaving `out` untouched) on an
/// unknown name.
bool ParseArrivalFamily(std::string_view name, ArrivalFamily& out);

/// All families, in declaration order (for test grids and the fuzzer).
std::vector<ArrivalFamily> AllArrivalFamilies();

struct ArrivalSpec {
  ArrivalFamily family = ArrivalFamily::kBernoulli;

  /// Long-run mean packets per slot per link — identical across families,
  /// so a frontier λ* is comparable between them.
  double rate = 0.02;

  /// kOnOff: stationary fraction of slots spent ON. The peak rate while
  /// ON is rate/duty_cycle, so rate ≤ duty_cycle is required.
  double duty_cycle = 0.25;
  /// kOnOff: mean ON-sojourn length in slots (geometric).
  double mean_burst_slots = 8.0;

  /// kLeakyBucket: bucket depth σ in packets; the source conforms to the
  /// (σ, ρ = rate) envelope.
  double bucket_depth = 4.0;
  /// kLeakyBucket: per-slot chance of an early (partial-bucket) release;
  /// 0 means releases happen only when the bucket fills.
  double release_probability = 0.25;

  void Validate() const;
};

/// Seed-pure batch-arrival generator: `ArrivalsFor(i)` must be called for
/// every link exactly once per slot, in ascending id order — the slotted
/// simulator's calling convention — and returns the number of packets
/// arriving at link i this slot.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, std::size_t num_links,
                 std::uint64_t seed);

  [[nodiscard]] const ArrivalSpec& Spec() const { return spec_; }
  [[nodiscard]] std::size_t Size() const { return states_.size(); }

  /// Packets arriving at link i this slot (advances link i's substream).
  std::uint64_t ArrivalsFor(net::LinkId i);

 private:
  struct LinkState {
    rng::Xoshiro256 gen;
    bool on = true;        // kOnOff modulation state
    double tokens = 0.0;   // kLeakyBucket fill level
  };

  ArrivalSpec spec_;
  std::vector<LinkState> states_;
};

}  // namespace fadesched::dynamics
