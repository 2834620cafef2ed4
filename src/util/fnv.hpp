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

}  // namespace fadesched::util
