#include "mathx/histogram.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace fadesched::mathx {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.NumBuckets(), 5u);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(4), 8.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(4), 10.0);
}

TEST(HistogramTest, ValuesLandInCorrectBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.Add(1.0);   // bucket 0
  h.Add(2.0);   // bucket 1 (half-open)
  h.Add(9.99);  // bucket 4
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(4), 1u);
  EXPECT_EQ(h.TotalCount(), 3u);
}

TEST(HistogramTest, UnderflowAndOverflowCounted) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-0.5);
  h.Add(1.0);  // hi is exclusive -> overflow
  h.Add(2.0);
  EXPECT_EQ(h.Underflow(), 1u);
  EXPECT_EQ(h.Overflow(), 2u);
  EXPECT_EQ(h.TotalCount(), 3u);
}

TEST(HistogramTest, EmpiricalCdf) {
  Histogram h(0.0, 4.0, 4);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(2.5);
  h.Add(3.5);
  EXPECT_DOUBLE_EQ(h.EmpiricalCdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(h.EmpiricalCdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(h.EmpiricalCdf(0.0), 0.0);
}

TEST(HistogramTest, AsciiRenderingMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.25);
  h.Add(0.25);
  const std::string art = h.ToAscii(10);
  EXPECT_NE(art.find("##"), std::string::npos);
  EXPECT_NE(art.find("2"), std::string::npos);
}

TEST(HistogramTest, InvalidConstructionRejected) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), util::CheckFailure);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), util::CheckFailure);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), util::CheckFailure);
}

TEST(HistogramTest, OutOfRangeBucketQueryThrows) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW((void)h.BucketCount(2), util::CheckFailure);
}

}  // namespace
}  // namespace fadesched::mathx
