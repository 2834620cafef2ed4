#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "rng/xoshiro256.hpp"

namespace fadesched::util {
namespace {

TEST(SplitTest, SplitsOnSeparator) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(SplitTest, LeadingAndTrailingSeparators) {
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(SplitTest, EmptyStringYieldsSingleEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoSeparatorYieldsWholeString) {
  EXPECT_EQ(Split("hello", ','), (std::vector<std::string>{"hello"}));
}

TEST(TrimTest, StripsBothEnds) { EXPECT_EQ(Trim("  abc \t"), "abc"); }

TEST(TrimTest, AllWhitespaceBecomesEmpty) { EXPECT_EQ(Trim(" \t\n "), ""); }

TEST(TrimTest, NoWhitespaceUnchanged) { EXPECT_EQ(Trim("abc"), "abc"); }

TEST(TrimTest, InteriorWhitespacePreserved) {
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(ParseIntTest, ParsesPlainInteger) {
  EXPECT_EQ(ParseInt("42").value(), 42);
}

TEST(ParseIntTest, ParsesNegative) { EXPECT_EQ(ParseInt("-7").value(), -7); }

TEST(ParseIntTest, AllowsSurroundingWhitespace) {
  EXPECT_EQ(ParseInt(" 13 ").value(), 13);
}

TEST(ParseIntTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseInt("42x").has_value());
}

TEST(ParseIntTest, RejectsEmpty) { EXPECT_FALSE(ParseInt("").has_value()); }

TEST(ParseIntTest, RejectsFloat) { EXPECT_FALSE(ParseInt("1.5").has_value()); }

TEST(ParseDoubleTest, ParsesDecimal) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
}

TEST(ParseDoubleTest, ParsesScientific) {
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 1e-3);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("abc").has_value());
}

TEST(ParseDoubleTest, RejectsPartialParse) {
  EXPECT_FALSE(ParseDouble("1.5kg").has_value());
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(JoinTest, SingleItemNoSeparator) { EXPECT_EQ(Join({"x"}, ","), "x"); }

TEST(JoinTest, EmptyListYieldsEmpty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(1.25), "1.25");
  EXPECT_EQ(FormatDouble(3.0), "3");
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(1.0 / 3.0, 3), "0.333");
}

TEST(FormatDoubleTest, NegativeValues) {
  EXPECT_EQ(FormatDouble(-2.5), "-2.5");
}

TEST(FormatDoubleTest, ZeroIsPlainZero) { EXPECT_EQ(FormatDouble(0.0), "0"); }

std::string Printf17g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string G17(double value) {
  std::string out = "prefix:";  // appends, never overwrites
  AppendDoubleG17(out, value);
  return out.substr(7);
}

// Golden: the .scenario text and the wire protocol switched from
// snprintf("%.17g") to std::to_chars, and every frame must stay
// byte-identical — so the two spellings must agree on the doubles where
// %g changes shape (exponent switch, subnormals, signed zero, integers,
// values just below a power of ten that round up to it).
TEST(AppendDoubleG17Test, MatchesPrintfOnEdgeDoubles) {
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 10.0, 100.0, 12345.0, 1e15, 1e16,
      1e17, 9007199254740992.0, 9007199254740993.0, 123456789012345678.0,
      0.1, 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.5, 0.25, 1e-4, 1e-5, 9.9999e-5,
      1e300, -1e300, 1e-300, -1e-300, 1e308, kMax, -kMax,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),  // top subnormal
      4.9406564584124654e-324, 2.2250738585072009e-308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (int k = -320; k <= 308; ++k) {
    const double power = std::pow(10.0, k);
    values.push_back(power);
    values.push_back(std::nextafter(power, 0.0));
    values.push_back(std::nextafter(power, kMax));
  }
  for (const double value : values) {
    EXPECT_EQ(G17(value), Printf17g(value))
        << "bits " << std::bit_cast<std::uint64_t>(value);
  }
}

TEST(AppendDoubleG17Test, MatchesPrintfOnRandomBitPatterns) {
  rng::Xoshiro256 gen(17);
  for (int i = 0; i < 100000; ++i) {
    const double value = std::bit_cast<double>(gen.Next());
    if (std::isnan(value)) continue;  // NaN payload/sign spelling is libc's
    ASSERT_EQ(G17(value), Printf17g(value))
        << "bits " << std::bit_cast<std::uint64_t>(value);
  }
}

}  // namespace
}  // namespace fadesched::util
