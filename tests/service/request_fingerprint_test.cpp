#include "service/request.hpp"

#include <gtest/gtest.h>

#include <string>

#include "testing/fuzzer.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest(std::uint64_t seed = 1) {
  fadesched::testing::ScenarioFuzzer fuzzer(seed);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "rle";
  request.id = "r0";
  return request;
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Canonical FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64Test, SeedChainsAcrossCalls) {
  const std::uint64_t whole = Fnv1a64("foobar");
  const std::uint64_t chained = Fnv1a64("bar", Fnv1a64("foo"));
  EXPECT_EQ(whole, chained);
}

TEST(WordHash64Test, EverySingleBitFlipChangesTheHash) {
  // Lengths around the 32-byte step and the zero-padded tail.
  for (std::size_t length = 0; length <= 100; ++length) {
    std::string bytes(length, '\0');
    for (std::size_t i = 0; i < length; ++i) {
      bytes[i] = static_cast<char>('a' + (i * 7) % 26);
    }
    const std::uint64_t base = WordHash64(bytes);
    EXPECT_EQ(WordHash64(bytes), base);
    for (std::size_t i = 0; i < length; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        ASSERT_NE(WordHash64(flipped), base)
            << "length " << length << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(WordHash64Test, TrailingZerosAndSeedsAreContent) {
  EXPECT_NE(WordHash64(""), WordHash64(std::string(1, '\0')));
  EXPECT_NE(WordHash64("a"), WordHash64(std::string("a\0", 2)));
  EXPECT_NE(WordHash64(std::string(32, '\0')), WordHash64(std::string(33, '\0')));
  EXPECT_NE(WordHash64("payload", 1), WordHash64("payload", 2));
}

TEST(FingerprintTest, DeterministicAcrossCalls) {
  const SchedulingRequest request = MakeRequest();
  const Fingerprint a = FingerprintRequest(request);
  const Fingerprint b = FingerprintRequest(request);
  EXPECT_EQ(a.scenario_hash, b.scenario_hash);
  EXPECT_EQ(a.request_hash, b.request_hash);
  EXPECT_EQ(a.canonical_scenario, b.canonical_scenario);
}

TEST(FingerprintTest, DescriptionAndIdAreNotContent) {
  SchedulingRequest request = MakeRequest();
  const Fingerprint base = FingerprintRequest(request);
  request.scenario.description = "some other provenance";
  request.id = "completely-different";
  const Fingerprint same = FingerprintRequest(request);
  EXPECT_EQ(base.request_hash, same.request_hash);
  EXPECT_EQ(base.canonical_scenario, same.canonical_scenario);
}

TEST(FingerprintTest, SchedulerNameSeparatesResponses) {
  SchedulingRequest request = MakeRequest();
  const Fingerprint rle = FingerprintRequest(request);
  request.scheduler = "ldp";
  const Fingerprint ldp = FingerprintRequest(request);
  // Same scenario, different scheduler: scenario-level key shared,
  // response-level key distinct.
  EXPECT_EQ(rle.scenario_hash, ldp.scenario_hash);
  EXPECT_NE(rle.request_hash, ldp.request_hash);
}

TEST(FingerprintTest, ScenarioContentChangesHash) {
  const Fingerprint a = FingerprintRequest(MakeRequest(1));
  const Fingerprint b = FingerprintRequest(MakeRequest(2));
  EXPECT_NE(a.scenario_hash, b.scenario_hash);
  EXPECT_NE(a.canonical_scenario, b.canonical_scenario);
}

TEST(FingerprintTest, ChannelParamsAreContent) {
  SchedulingRequest request = MakeRequest();
  const Fingerprint base = FingerprintRequest(request);
  request.scenario.params.epsilon *= 0.5;
  const Fingerprint changed = FingerprintRequest(request);
  EXPECT_NE(base.scenario_hash, changed.scenario_hash);
}

// The canonical blob, scenario_hash and request_hash of fixed fuzzer
// cases, as the append-per-field build produced them: building the blob
// in one sized pass must not move a byte of it.
TEST(FingerprintTest, BlobAndHashesArePinned) {
  struct Pinned {
    std::uint64_t case_index;
    std::size_t links;  ///< 0: the fuzzer's own size
    const char* scheduler;
    std::size_t blob_bytes;
    std::uint64_t blob_fnv;
    std::uint64_t scenario_hash;
    std::uint64_t request_hash;
  };
  const Pinned pinned[] = {
      {0, 0, "rle", 688, 0x07c7a36132a04cacull, 0x1ed864249b7f4d45ull,
       0xe3a3498dfb0abbb7ull},
      {1, 0, "ldp", 592, 0xe3ad7d5f7399547dull, 0x05419836aafe4c1eull,
       0x0d7ba12667d6ae4eull},
      {2, 0, "fading_greedy", 784, 0xbc470a1548b3b626ull,
       0x231c8ed55c4fbbe6ull, 0x3e923801d5b1e485ull},
      {3, 0, "approx_diversity", 640, 0x407ff55132be0607ull,
       0x7bf0bb3dcd4d01f0ull, 0xf60cdde03bb7dfc4ull},
      {0, 600, "rle", 28864, 0xab6153251d3141e6ull, 0xf6f2600ed5bf89a0ull,
       0x55debc953c9d1a4dull},
  };
  for (const Pinned& want : pinned) {
    fadesched::testing::FuzzerOptions options;
    if (want.links > 0) options.min_links = options.max_links = want.links;
    SchedulingRequest request;
    request.scenario =
        fadesched::testing::ScenarioFuzzer(7, options).Case(want.case_index);
    request.scheduler = want.scheduler;
    const Fingerprint fp = FingerprintRequest(request);
    EXPECT_EQ(fp.canonical_scenario.size(), want.blob_bytes) << want.scheduler;
    EXPECT_EQ(Fnv1a64(fp.canonical_scenario.view()), want.blob_fnv)
        << want.scheduler;
    EXPECT_EQ(fp.scenario_hash, want.scenario_hash) << want.scheduler;
    EXPECT_EQ(fp.request_hash, want.request_hash) << want.scheduler;
    EXPECT_EQ(RequestHash(fp.scenario_hash, want.scheduler), fp.request_hash);
  }
}

TEST(FingerprintTest, EmptySchedulerNameIsRejected) {
  SchedulingRequest request = MakeRequest();
  request.scheduler.clear();
  EXPECT_THROW(FingerprintRequest(request), util::CheckFailure);
}

TEST(ResponseTest, ExitCodesFollowTheTaxonomy) {
  SchedulingResponse ok;
  EXPECT_EQ(ok.ExitCode(), util::kExitOk);

  SchedulingResponse shed;
  shed.status = ResponseStatus::kShed;
  shed.error_kind = util::ErrorKind::kTransient;
  EXPECT_EQ(shed.ExitCode(), util::kExitRuntime);

  SchedulingResponse timeout;
  timeout.status = ResponseStatus::kTimeout;
  timeout.error_kind = util::ErrorKind::kTimeout;
  EXPECT_EQ(timeout.ExitCode(), util::kExitInterrupted);
}

TEST(ResponseTest, StatusNamesAreStable) {
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kOk), "ok");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kShed), "shed");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kTimeout), "timeout");
  EXPECT_STREQ(ResponseStatusName(ResponseStatus::kError), "error");
}

}  // namespace
}  // namespace fadesched::service
