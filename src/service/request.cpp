#include "service/request.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "geom/vec2.hpp"
#include "util/check.hpp"

namespace fadesched::service {

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kTimeout: return "timeout";
    case ResponseStatus::kError: return "error";
  }
  return "unknown";
}

int SchedulingResponse::ExitCode() const {
  if (Ok()) return util::kExitOk;
  return util::ExitCodeForError(error_kind);
}

namespace {

// Odd 64-bit constants (the golden ratio and splitmix64's multipliers).
constexpr std::uint64_t kWordK0 = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kWordK1 = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kWordK2 = 0x94d049bb133111ebull;
constexpr std::uint64_t kWordK3 = 0xd6e8feb86659fd93ull;

std::uint64_t Load64(const char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

__extension__ typedef unsigned __int128 Uint128;  // GCC/Clang builtin

// The full 128-bit product folded to 64 bits: every output bit depends on
// every bit of both operands.
std::uint64_t Fold(std::uint64_t a, std::uint64_t b) {
  const Uint128 product = static_cast<Uint128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

// One 32-byte step: each lane folds its two words and multiplies the
// result into its state by an odd constant, which is invertible, so no
// input can wipe what the lane has absorbed.
void WordStep(const char* p, std::uint64_t& a, std::uint64_t& b) {
  a = (a ^ Fold(Load64(p) ^ kWordK0, Load64(p + 8) ^ kWordK1)) * kWordK2;
  b = (b ^ Fold(Load64(p + 16) ^ kWordK2, Load64(p + 24) ^ kWordK3)) *
      kWordK0;
}

// Writes `value`'s bytes at `out` and returns the byte after them.
template <typename T>
char* Put(char* out, T value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

}  // namespace

std::uint64_t WordHash64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t a = seed ^ kWordK0;
  std::uint64_t b = Fold(seed ^ kWordK1, kWordK2);
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 32; p += 32, left -= 32) WordStep(p, a, b);
  // The last 0..31 bytes, zero-padded; the length is folded in below, so
  // a trailing zero byte still changes the hash.
  char tail[32] = {};
  if (left > 0) std::memcpy(tail, p, left);
  WordStep(tail, a, b);
  return Fold(a ^ bytes.size(), b ^ kWordK3);
}

SharedBytes::SharedBytes(std::string bytes)
    : bytes_(std::make_shared<const std::string>(std::move(bytes))) {}

const std::string& SharedBytes::Str() const {
  static const std::string kEmpty;
  return bytes_ != nullptr ? *bytes_ : kEmpty;
}

Fingerprint FingerprintRequest(const SchedulingRequest& request) {
  FS_CHECK_MSG(!request.scheduler.empty(),
               "request carries no scheduler name");
  const net::LinkSet& links = request.scenario.links;
  const channel::ChannelParams& params = request.scenario.params;

  // Sized once, then each double stored at its offset: at N = 2000 that
  // is 96 KB of plain stores instead of about 12k appends.
  constexpr std::string_view kVersion("fadesched-fp-v1\0", 16);
  constexpr std::size_t kLinkBytes = 6 * sizeof(double);
  std::string blob(kVersion.size() + 5 * sizeof(double) +
                       sizeof(std::uint64_t) + links.Size() * kLinkBytes,
                   '\0');
  char* out = blob.data();
  out = std::copy(kVersion.begin(), kVersion.end(), out);
  for (const double value : {params.alpha, params.epsilon, params.gamma_th,
                             params.tx_power, params.noise_power}) {
    out = Put(out, value);
  }
  out = Put(out, static_cast<std::uint64_t>(links.Size()));
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    const geom::Vec2 sender = links.Sender(i);
    const geom::Vec2 receiver = links.Receiver(i);
    for (const double value : {sender.x, sender.y, receiver.x, receiver.y,
                               links.Rate(i), links.TxPower(i)}) {
      out = Put(out, value);
    }
  }
  FS_CHECK(out == blob.data() + blob.size());

  Fingerprint fp;
  fp.scheduler = request.scheduler;
  fp.scenario_hash = WordHash64(blob);
  fp.request_hash = RequestHash(fp.scenario_hash, fp.scheduler);
  fp.canonical_scenario = SharedBytes(std::move(blob));
  return fp;
}

std::uint64_t RequestHash(std::uint64_t scenario_hash,
                          std::string_view scheduler) {
  // Chain the scheduler name (plus a separator that cannot appear in a
  // name) so "rle" on scenario X never collides with "ldp" on X.
  return WordHash64(scheduler, WordHash64("\n#scheduler:", scenario_hash));
}

}  // namespace fadesched::service
