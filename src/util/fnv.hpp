// 64-bit FNV-1a, the hash the wire checksums (check=, sum=) are defined
// with. Inline so a parser can fold the bytes it has just consumed into a
// running state: the multiply chain then executes in the shadow of the
// parse instead of as a second pass over the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fadesched::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds the bytes [begin, end) into the FNV-1a state `hash`.
inline std::uint64_t FnvFold(std::uint64_t hash, const char* begin,
                             const char* end) {
  for (; begin != end; ++begin) {
    hash ^= static_cast<unsigned char>(*begin);
    hash *= kFnvPrime;
  }
  return hash;
}

/// 64-bit FNV-1a over `bytes`, chainable via `seed`. Byte-serial: one
/// multiply latency per byte.
inline std::uint64_t Fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnvOffsetBasis) {
  return FnvFold(seed, bytes.data(), bytes.data() + bytes.size());
}

/// kFnvPrime to the n-th power, mod 2^64. With it FNV-1a over fixed
/// bytes is affine in its seed once the seed's low byte is fixed:
/// Fnv1a64(p, s) == s * FnvPower(p.size()) + R, where the residue R
/// depends on p and on s & 0xff only. (Each step XORs a byte into the
/// low 8 bits and multiplies; the low 8 bits of a product depend only on
/// the low 8 bits of its factors.)
constexpr std::uint64_t FnvPower(std::size_t n) {
  std::uint64_t power = 1;
  for (std::uint64_t base = kFnvPrime; n != 0; n >>= 1, base *= base) {
    if ((n & 1) != 0) power *= base;
  }
  return power;
}

}  // namespace fadesched::util
