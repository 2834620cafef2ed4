// xoshiro256++ 1.0 (Blackman & Vigna) with Jump()/LongJump() for
// constructing statistically independent parallel streams.
//
// We carry our own generator (rather than std::mt19937_64) so that
// simulation results are bit-reproducible across standard libraries and so
// that per-thread streams can be split deterministically.
#pragma once

#include <array>
#include <cstdint>

namespace fadesched::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by running SplitMix64 on `seed`.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Inline: the §II fading draw calls it m² times per realization.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so std distributions also work.
  std::uint64_t operator()() { return Next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Advances the state by 2^128 draws (for up to 2^128 parallel streams).
  void Jump();

  /// Advances the state by 2^192 draws (for hierarchies of stream groups).
  void LongJump();

  /// Returns a copy jumped `stream_index + 1` times past *this — a cheap
  /// way to derive the i-th independent stream from a master generator.
  [[nodiscard]] Xoshiro256 Split(unsigned stream_index) const;

  [[nodiscard]] std::array<std::uint64_t, 4> State() const { return state_; }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace fadesched::rng
