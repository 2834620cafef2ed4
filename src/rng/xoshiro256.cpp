#include "rng/xoshiro256.hpp"

#include "rng/splitmix64.hpp"

namespace fadesched::rng {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.Next();
}

void Xoshiro256::Jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (int i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      Next();
    }
  }
  state_ = acc;
}

void Xoshiro256::LongJump() {
  static constexpr std::uint64_t kLongJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
  for (std::uint64_t word : kLongJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (int i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      Next();
    }
  }
  state_ = acc;
}

Xoshiro256 Xoshiro256::Split(unsigned stream_index) const {
  Xoshiro256 child = *this;
  for (unsigned i = 0; i <= stream_index; ++i) child.Jump();
  return child;
}

}  // namespace fadesched::rng
