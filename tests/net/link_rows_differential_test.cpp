// net::ParseLinkRows, the one-pass link-block path, against the reference
// net::ParseLinkCsv: on every input the fast path either declines or
// gives the reference's LinkSet bit for bit, and the FNV-1a state it folds
// in equals util::Fnv1a64 over the same bytes. Each deviation class the
// fast path must decline on has its own case.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/link_set.hpp"
#include "net/scenario_io.hpp"
#include "testing/corpus.hpp"
#include "testing/fuzzer.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace fadesched::net {
namespace {

constexpr std::uint64_t kSeed = 0x0123456789abcdefull;

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool BitIdentical(const LinkSet& a, const LinkSet& b) {
  return SameBytes(a.Senders(), b.Senders()) &&
         SameBytes(a.Receivers(), b.Receivers()) &&
         SameBytes(a.Rates(), b.Rates()) &&
         SameBytes(a.Lengths(), b.Lengths()) &&
         SameBytes(a.TxPowers(), b.TxPowers());
}

bool BitIdentical(const channel::ChannelParams& a,
                  const channel::ChannelParams& b) {
  const double x[] = {a.alpha, a.epsilon, a.gamma_th, a.tx_power,
                      a.noise_power};
  const double y[] = {b.alpha, b.epsilon, b.gamma_th, b.tx_power,
                      b.noise_power};
  return std::memcmp(x, y, sizeof(x)) == 0;
}

/// Runs both paths over `block`. Returns whether the fast path was taken;
/// if it was, the reference must accept with the same bits and the FNV
/// must be the standalone one. If not, the FNV state is untouched.
bool Compare(std::string_view block) {
  std::uint64_t fnv = kSeed;
  const std::optional<LinkSet> fast = ParseLinkRows(block, &fnv);
  const std::optional<LinkSet> unfolded = ParseLinkRows(block);
  EXPECT_EQ(fast.has_value(), unfolded.has_value());
  if (!fast) {
    EXPECT_EQ(fnv, kSeed);
    return false;
  }
  EXPECT_EQ(fnv, util::Fnv1a64(block, kSeed));
  EXPECT_TRUE(BitIdentical(*fast, *unfolded));
  try {
    EXPECT_TRUE(BitIdentical(*fast, ParseLinkCsv(block)));
  } catch (const util::CheckFailure& e) {
    ADD_FAILURE() << "fast path accepted what the reference rejects: "
                  << e.what();
  }
  return true;
}

/// The link block of a formatted scenario: everything after "links:\n".
std::string BlockOf(const std::string& scenario_text) {
  const std::size_t at = scenario_text.find("links:\n");
  EXPECT_NE(at, std::string::npos);
  return scenario_text.substr(at + 7);
}

/// ParseScenario (fast path when taken) against the header parse plus
/// ParseLinkCsv, and its chained FNV against the standalone one.
void ExpectScenarioMatchesReference(const std::string& text) {
  std::uint64_t fnv = kSeed;
  const testing::ScenarioCase parsed = testing::ParseScenario(text, &fnv);
  EXPECT_EQ(fnv, util::Fnv1a64(text, kSeed));
  const testing::ScenarioCase plain = testing::ParseScenario(text);
  EXPECT_TRUE(BitIdentical(parsed.params, plain.params));
  EXPECT_EQ(parsed.description, plain.description);
  EXPECT_TRUE(BitIdentical(parsed.links, ParseLinkCsv(BlockOf(text))));
}

TEST(LinkRowsDifferentialTest, EveryCorpusFileTakesTheFastPathBitIdentically) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FADESCHED_TEST_CORPUS_DIR)) {
    if (entry.path().extension() != ".scenario") continue;
    const std::string text = util::ReadFileToString(entry.path().string());
    SCOPED_TRACE(entry.path().filename().string());
    EXPECT_TRUE(Compare(BlockOf(text)));
    ExpectScenarioMatchesReference(text);
    ++files;
  }
  EXPECT_GT(files, 0u);
}

TEST(LinkRowsDifferentialTest, FuzzerFamiliesTakeTheFastPathBitIdentically) {
  testing::FuzzerOptions options;
  options.max_links = 64;
  const testing::ScenarioFuzzer fuzzer(23, options);
  std::set<std::string> families;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const testing::ScenarioCase scenario = fuzzer.Case(i);
    const std::string text = testing::FormatScenario(scenario);
    SCOPED_TRACE(scenario.description);
    ASSERT_TRUE(Compare(BlockOf(text)));
    ExpectScenarioMatchesReference(text);
    const std::size_t at = scenario.description.find("topology=");
    families.insert(scenario.description.substr(
        at + 9, scenario.description.find(' ', at) - at - 9));
  }
  for (const char* family :
       {"uniform", "clustered", "near_far", "colinear", "duplicate_position"}) {
    EXPECT_EQ(families.count(family), 1u) << family;
  }
}

TEST(LinkRowsDifferentialTest, SubnormalAndExtremeCoordinatesRoundTrip) {
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  constexpr double kNormMin = std::numeric_limits<double>::min();
  testing::ScenarioCase scenario;
  const Link links[] = {
      {{0.0, 0.0}, {kMin, 0.0}, 1.0, 0.0},
      {{-kMin, kNormMin}, {3 * kMin, -kNormMin}, 0.5, 0.0},
      {{-0.0, -0.0}, {1e-310, 2.5e-320}, 1e-300, 0.0},
      {{1e300, -1e300}, {-1e300, 1e300}, 1e300, 0.0},
      {{1.7976931348623157e307, 0.0}, {0.0, 1e-3}, 2.0, 0.0},
      {{123456789.123456789, 0.1}, {0.3, 0.7}, 4.0, 0.0},
  };
  for (const Link& link : links) scenario.links.Add(link);
  const std::string text = testing::FormatScenario(scenario);
  EXPECT_TRUE(Compare(BlockOf(text)));
  ExpectScenarioMatchesReference(text);

  // Spellings FormatScenario never writes but from_chars consumes whole.
  EXPECT_TRUE(Compare("sx,sy,rx,ry,rate\n"
                      "1e-320,0,2.4703282292062328e-324,1E2,1\n"
                      "0.000,-0,.5,5.,1e0\n"
                      "00012,1.00000000000000000000001,7,8,3\n"));
  // A header with no rows is an empty set on both paths.
  EXPECT_TRUE(Compare("sx,sy,rx,ry,rate\n"));
  EXPECT_TRUE(Compare("sx,sy,rx,ry,rate,tx_power\n"));
}

TEST(LinkRowsDifferentialTest, TxPowerColumnTakesTheFastPath) {
  testing::FuzzerOptions options;
  options.max_links = 40;
  testing::ScenarioCase scenario = testing::ScenarioFuzzer(5, options).Case(3);
  LinkSet powered;
  for (LinkId i = 0; i < scenario.links.Size(); ++i) {
    Link link = scenario.links.At(i);
    link.tx_power = i % 3 == 0 ? 0.0 : 0.25 * static_cast<double>(i);
    powered.Add(link);
  }
  scenario.links = powered;
  const std::string text = testing::FormatScenario(scenario);
  ASSERT_NE(text.find("sx,sy,rx,ry,rate,tx_power\n"), std::string::npos);
  EXPECT_TRUE(Compare(BlockOf(text)));
  ExpectScenarioMatchesReference(text);
}

/// A block the fast path must decline; the reference decides (and, for a
/// whole scenario, ParseScenario still chains the standalone FNV).
void ExpectDeclined(const std::string& block) {
  SCOPED_TRACE(block);
  EXPECT_FALSE(Compare(block));
  const std::string text =
      "# fadesched scenario v1\nalpha = 3\nepsilon = 0.01\ngamma_th = 1\n"
      "tx_power = 1\nnoise_power = 0\nlinks:\n" +
      block;
  bool reference_accepts = true;
  try {
    (void)ParseLinkCsv(block);
  } catch (const util::CheckFailure&) {
    reference_accepts = false;
  }
  if (reference_accepts) {
    ExpectScenarioMatchesReference(text);
  } else {
    std::uint64_t fnv = kSeed;
    EXPECT_THROW((void)testing::ParseScenario(text, &fnv),
                 util::CheckFailure);
  }
}

constexpr const char* kHeader = "sx,sy,rx,ry,rate\n";

TEST(LinkRowsDifferentialTest, BlanksDecline) {
  for (const char* row : {" 1,2,3,4,1\n", "1 ,2,3,4,1\n", "1,2, 3,4,1\n",
                          "1,2,3,4,1 \n", "1,2,3,4\t,1\n", "\t1,2,3,4,1\n",
                          "1,2,3,4,1\v\n"}) {
    ExpectDeclined(std::string(kHeader) + row);
  }
  ExpectDeclined("sx, sy,rx,ry,rate\n1,2,3,4,1\n");
  ExpectDeclined("sx,sy,rx,ry,rate \n1,2,3,4,1\n");
}

TEST(LinkRowsDifferentialTest, CarriageReturnsDecline) {
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\r\n");
  ExpectDeclined("sx,sy,rx,ry,rate\r\n1,2,3,4,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n5,6,7,8,1\r\n");
}

TEST(LinkRowsDifferentialTest, QuotesDecline) {
  ExpectDeclined(std::string(kHeader) + "\"1\",2,3,4,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,\"1\"\n");
  ExpectDeclined("\"sx\",sy,rx,ry,rate\n1,2,3,4,1\n");
}

TEST(LinkRowsDifferentialTest, BlankLinesDecline) {
  ExpectDeclined(std::string(kHeader) + "\n1,2,3,4,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n\n5,6,7,8,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n   \n");
}

TEST(LinkRowsDifferentialTest, NonFiniteValuesDecline) {
  for (const char* cell : {"inf", "-inf", "nan", "infinity", "1e400",
                           "-1e999"}) {
    ExpectDeclined(std::string(kHeader) + cell + ",2,3,4,1\n");
    ExpectDeclined(std::string(kHeader) + "1,2,3,4," + cell + "\n");
  }
}

TEST(LinkRowsDifferentialTest, NonPositiveRatesAndNegativePowersDecline) {
  for (const char* rate : {"0", "-0", "-1", "-4.9406564584124654e-324"}) {
    ExpectDeclined(std::string(kHeader) + "1,2,3,4," + rate + "\n");
  }
  ExpectDeclined("sx,sy,rx,ry,rate,tx_power\n1,2,3,4,1,-1\n");
  ExpectDeclined("sx,sy,rx,ry,rate,tx_power\n1,2,3,4,1,-1e-300\n");
}

TEST(LinkRowsDifferentialTest, LinkSetAddFailuresDecline) {
  // Sender on receiver, and a length that overflows to infinity.
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n5,6,5,6,1\n");
  ExpectDeclined(std::string(kHeader) + "-1e308,0,1e308,0,1\n");
}

TEST(LinkRowsDifferentialTest, OtherColumnOrdersAndShapesDecline) {
  for (const char* header :
       {"sy,sx,rx,ry,rate\n", "rate,sx,sy,rx,ry\n", "sx,sy,rx,ry\n",
        "sx,sy,rx,ry,rate,tx_power,extra\n", "sx,sy,rx,ry,rate,extra\n",
        "tx_power,sx,sy,rx,ry,rate\n", "SX,SY,RX,RY,RATE\n"}) {
    ExpectDeclined(std::string(header) + "1,2,3,4,1\n");
  }
  // A row with a cell too few or too many, or an empty cell.
  ExpectDeclined(std::string(kHeader) + "1,2,3,4\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,,4,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1,\n");
  // A cell from_chars does not consume whole, and a missing last newline.
  ExpectDeclined(std::string(kHeader) + "+1,2,3,4,1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,0x1\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1e\n");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1");
  ExpectDeclined(std::string(kHeader) + "1,2,3,4,1\n5,6,7,8,1");
  ExpectDeclined(std::string(kHeader) + std::string("1,2,3,4,1\0\n", 11));
  ExpectDeclined("sx,sy,rx,ry,rate");
  ExpectDeclined("");
}

}  // namespace
}  // namespace fadesched::net
