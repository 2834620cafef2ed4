#include "net/scenario_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace fadesched::net {
namespace {

TEST(ScenarioIoTest, CsvHasExpectedColumns) {
  LinkSet links;
  links.Add(Link{{1, 2}, {3, 4}, 5.0});
  const util::CsvTable table = ToCsv(links);
  EXPECT_EQ(table.Header(),
            (std::vector<std::string>{"sx", "sy", "rx", "ry", "rate"}));
  EXPECT_EQ(table.NumRows(), 1u);
}

TEST(ScenarioIoTest, TableRoundTripPreservesValues) {
  rng::Xoshiro256 gen(1);
  const LinkSet links = MakeUniformScenario(50, {}, gen);
  const LinkSet parsed = ParseLinkCsv(ToCsv(links).ToString());
  ASSERT_EQ(parsed.Size(), links.Size());
  for (LinkId i = 0; i < links.Size(); ++i) {
    EXPECT_NEAR(parsed.Sender(i).x, links.Sender(i).x, 1e-9);
    EXPECT_NEAR(parsed.Sender(i).y, links.Sender(i).y, 1e-9);
    EXPECT_NEAR(parsed.Receiver(i).x, links.Receiver(i).x, 1e-9);
    EXPECT_NEAR(parsed.Receiver(i).y, links.Receiver(i).y, 1e-9);
    EXPECT_NEAR(parsed.Rate(i), links.Rate(i), 1e-9);
  }
}

TEST(ScenarioIoTest, FileRoundTrip) {
  rng::Xoshiro256 gen(2);
  const LinkSet links = MakeUniformScenario(20, {}, gen);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fadesched_io_test.csv")
          .string();
  SaveLinkSet(links, path);
  const LinkSet loaded = LoadLinkSet(path);
  EXPECT_EQ(loaded.Size(), links.Size());
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadLinkSet("/nonexistent/dir/links.csv"), util::CheckFailure);
}

TEST(ScenarioIoTest, UnwritablePathThrows) {
  rng::Xoshiro256 gen(3);
  const LinkSet links = MakeUniformScenario(2, {}, gen);
  // Atomic writes classify I/O failures as transient harness errors.
  try {
    SaveLinkSet(links, "/nonexistent/dir/links.csv");
    FAIL() << "expected HarnessError";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kTransient);
  }
}

TEST(ScenarioIoTest, MalformedCsvRejected) {
  EXPECT_THROW(ParseLinkCsv("sx,sy,rx,ry,rate\n1,2,3,four,5\n"),
               util::CheckFailure);
}

TEST(ScenarioIoTest, MissingColumnRejected) {
  EXPECT_THROW(ParseLinkCsv("sx,sy\n1,2\n"), util::CheckFailure);
}

TEST(ScenarioIoTest, InvalidLinkDataRejectedOnLoad) {
  // Zero-length link (sender == receiver) must fail LinkSet validation.
  EXPECT_THROW(ParseLinkCsv("sx,sy,rx,ry,rate\n1,1,1,1,1\n"),
               util::CheckFailure);
}

TEST(ScenarioIoTest, EmptyLinkSetRoundTrips) {
  const LinkSet empty;
  const LinkSet parsed = ParseLinkCsv(ToCsv(empty).ToString());
  EXPECT_TRUE(parsed.Empty());
}

TEST(ScenarioIoTest, MalformedRowsNameTheOffendingRow) {
  // Every rejection must point at the 1-based data row so a bad line in a
  // large scenario file is findable. The first data row is row 1.
  struct Case {
    const char* name;
    const char* csv;
    const char* expected_fragment;
  };
  const Case cases[] = {
      {"malformed number",
       "sx,sy,rx,ry,rate\n0,0,1,0,1\n1,zzz,2,0,1\n",
       "scenario row 2: malformed value in column sy"},
      {"nan coordinate",
       "sx,sy,rx,ry,rate\nnan,0,1,0,1\n",
       "scenario row 1: non-finite value in column sx"},
      {"inf coordinate",
       "sx,sy,rx,ry,rate\n0,0,inf,0,1\n",
       "scenario row 1: non-finite value in column rx"},
      {"negative rate",
       "sx,sy,rx,ry,rate\n0,0,1,0,1\n0,1,1,1,-2\n",
       "scenario row 2: rate must be positive"},
      {"zero rate",
       "sx,sy,rx,ry,rate\n0,0,1,0,0\n",
       "scenario row 1: rate must be positive"},
      {"infinite rate",
       "sx,sy,rx,ry,rate\n0,0,1,0,inf\n",
       "scenario row 1: non-finite value in column rate"},
      {"zero-length link",
       "sx,sy,rx,ry,rate\n0,0,1,0,1\n0,0,1,0,1\n5,5,5,5,1\n",
       "scenario row 3"},
      {"negative tx_power",
       "sx,sy,rx,ry,rate,tx_power\n0,0,1,0,1,-3\n",
       "scenario row 1: tx_power must be non-negative"},
      {"short row",
       "sx,sy,rx,ry,rate\n0,0,1,0,1\n\n0,0,1\n",
       "CSV row 2: expected 5 columns, got 3"},
      {"missing column",
       "sx,sy,rx,rate\n0,0,1,1\n",
       "no such CSV column: ry"},
  };
  for (const Case& c : cases) {
    try {
      (void)ParseLinkCsv(c.csv);
      FAIL() << c.name << ": expected CheckFailure";
    } catch (const util::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(c.expected_fragment),
                std::string::npos)
          << c.name << ": got \"" << e.what() << '"';
    }
  }
}

}  // namespace
}  // namespace fadesched::net
