#include "net/link_set.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace fadesched::net {
namespace {

Link MakeLink(double sx, double sy, double rx, double ry, double rate = 1.0) {
  return Link{{sx, sy}, {rx, ry}, rate};
}

TEST(LinkTest, LengthIsEuclidean) {
  EXPECT_DOUBLE_EQ(MakeLink(0, 0, 3, 4).Length(), 5.0);
}

TEST(LinkSetTest, EmptySet) {
  LinkSet links;
  EXPECT_TRUE(links.Empty());
  EXPECT_EQ(links.Size(), 0u);
  EXPECT_TRUE(links.HasUniformRates());
}

TEST(LinkSetTest, AddReturnsSequentialIds) {
  LinkSet links;
  EXPECT_EQ(links.Add(MakeLink(0, 0, 1, 0)), 0u);
  EXPECT_EQ(links.Add(MakeLink(5, 5, 6, 5)), 1u);
  EXPECT_EQ(links.Size(), 2u);
}

TEST(LinkSetTest, AccessorsMatchInput) {
  LinkSet links;
  links.Add(MakeLink(1, 2, 4, 6, 2.5));
  EXPECT_EQ(links.Sender(0), (geom::Vec2{1, 2}));
  EXPECT_EQ(links.Receiver(0), (geom::Vec2{4, 6}));
  EXPECT_DOUBLE_EQ(links.Rate(0), 2.5);
  EXPECT_DOUBLE_EQ(links.Length(0), 5.0);
  const Link round_trip = links.At(0);
  EXPECT_EQ(round_trip.sender, (geom::Vec2{1, 2}));
  EXPECT_DOUBLE_EQ(round_trip.rate, 2.5);
}

TEST(LinkSetTest, SpanViewsConsistent) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 1, 0));
  links.Add(MakeLink(2, 0, 3, 0, 4.0));
  EXPECT_EQ(links.Senders().size(), 2u);
  EXPECT_EQ(links.Lengths()[1], 1.0);
  EXPECT_EQ(links.Rates()[1], 4.0);
}

TEST(LinkSetTest, ZeroLengthLinkRejected) {
  LinkSet links;
  EXPECT_THROW(links.Add(MakeLink(1, 1, 1, 1)), util::CheckFailure);
}

TEST(LinkSetTest, NonPositiveRateRejected) {
  LinkSet links;
  EXPECT_THROW(links.Add(MakeLink(0, 0, 1, 0, 0.0)), util::CheckFailure);
  EXPECT_THROW(links.Add(MakeLink(0, 0, 1, 0, -1.0)), util::CheckFailure);
}

TEST(LinkSetTest, NonFiniteEndpointRejected) {
  LinkSet links;
  EXPECT_THROW(
      links.Add(Link{{0, 0}, {std::numeric_limits<double>::infinity(), 0}, 1}),
      util::CheckFailure);
}

TEST(LinkSetTest, TotalRateOverSubset) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 1, 0, 1.0));
  links.Add(MakeLink(2, 0, 3, 0, 2.0));
  links.Add(MakeLink(4, 0, 5, 0, 4.0));
  const std::vector<LinkId> subset{0, 2};
  EXPECT_DOUBLE_EQ(links.TotalRate(subset), 5.0);
}

TEST(LinkSetTest, TotalRateRejectsInvalidId) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 1, 0));
  const std::vector<LinkId> bad{3};
  EXPECT_THROW((void)links.TotalRate(bad), util::CheckFailure);
}

TEST(LinkSetTest, UniformRateDetection) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 1, 0, 2.0));
  links.Add(MakeLink(2, 0, 3, 0, 2.0));
  EXPECT_TRUE(links.HasUniformRates());
  links.Add(MakeLink(4, 0, 5, 0, 3.0));
  EXPECT_FALSE(links.HasUniformRates());
}

TEST(LinkSetTest, BoundingBoxCoversAllEndpoints) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 10, -5));
  links.Add(MakeLink(-3, 7, 1, 1));
  const geom::Aabb box = links.BoundingBox();
  EXPECT_DOUBLE_EQ(box.lo.x, -3.0);
  EXPECT_DOUBLE_EQ(box.lo.y, -5.0);
  EXPECT_DOUBLE_EQ(box.hi.x, 10.0);
  EXPECT_DOUBLE_EQ(box.hi.y, 7.0);
}

TEST(LinkSetTest, MinMaxLength) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 2, 0));
  links.Add(MakeLink(0, 0, 0, 7));
  links.Add(MakeLink(0, 0, 1, 0));
  EXPECT_DOUBLE_EQ(links.MinLength(), 1.0);
  EXPECT_DOUBLE_EQ(links.MaxLength(), 7.0);
}

TEST(LinkSetTest, EmptySetQueriesThrow) {
  LinkSet links;
  EXPECT_THROW((void)links.BoundingBox(), util::CheckFailure);
  EXPECT_THROW((void)links.MinLength(), util::CheckFailure);
  EXPECT_THROW((void)links.MaxLength(), util::CheckFailure);
}

TEST(LinkSetTest, SubsetPreservesOrderAndData) {
  LinkSet links;
  links.Add(MakeLink(0, 0, 1, 0, 1.0));
  links.Add(MakeLink(2, 0, 3, 0, 2.0));
  links.Add(MakeLink(4, 0, 5, 0, 3.0));
  const std::vector<LinkId> ids{2, 0};
  const LinkSet subset = links.Subset(ids);
  ASSERT_EQ(subset.Size(), 2u);
  EXPECT_DOUBLE_EQ(subset.Rate(0), 3.0);
  EXPECT_DOUBLE_EQ(subset.Rate(1), 1.0);
}

TEST(LinkSetTest, ConstructFromSpan) {
  const std::vector<Link> raw{MakeLink(0, 0, 1, 0), MakeLink(2, 0, 3, 0)};
  const LinkSet links(raw);
  EXPECT_EQ(links.Size(), 2u);
}

}  // namespace
}  // namespace fadesched::net
