#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest() {
  fadesched::testing::ScenarioFuzzer fuzzer(3);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "rle";
  request.id = "r0";
  return request;
}

std::string ExpectThrowMessage(const std::function<void()>& action) {
  try {
    action();
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
    return e.what();
  }
  ADD_FAILURE() << "expected a HarnessError";
  return "";
}

TEST(RequestFrameTest, RoundTripsThroughFormatAndParse) {
  SchedulingRequest request = MakeRequest();
  request.deadline_seconds = 0.25;
  const std::string frame = FormatRequestFrame(request);
  // A frame is header + scenario + END, newline-terminated throughout.
  EXPECT_EQ(frame.rfind("END\n"), frame.size() - 4);

  // The server strips the END line before ParseRequestFrame; mimic that.
  const SchedulingRequest parsed =
      ParseRequestFrame(frame.substr(0, frame.size() - 4));
  EXPECT_EQ(parsed.id, "r0");
  EXPECT_EQ(parsed.scheduler, "rle");
  EXPECT_DOUBLE_EQ(parsed.deadline_seconds, 0.25);
  EXPECT_EQ(parsed.scenario.links.Size(), request.scenario.links.Size());
  // Content equality at full precision: the fingerprints must agree.
  EXPECT_EQ(FingerprintRequest(parsed).request_hash,
            FingerprintRequest(request).request_hash);
}

TEST(RequestFrameTest, SecondSerializationIsByteIdentical) {
  const SchedulingRequest request = MakeRequest();
  const std::string once = FormatRequestFrame(request);
  const SchedulingRequest parsed =
      ParseRequestFrame(once.substr(0, once.size() - 4));
  // Description round-trips too, so the whole frame is reproducible.
  EXPECT_EQ(FormatRequestFrame(parsed), once);
}

TEST(RequestFrameTest, RejectsMalformedHeadersNamingLineOne) {
  const std::string msg1 = ExpectThrowMessage(
      [] { (void)ParseRequestFrame("HELLO id=a scheduler=rle\nx\n"); });
  EXPECT_NE(msg1.find("request frame line 1"), std::string::npos);

  const std::string msg2 = ExpectThrowMessage(
      [] { (void)ParseRequestFrame("REQUEST scheduler=rle\nx\n"); });
  EXPECT_NE(msg2.find("missing id="), std::string::npos);

  const std::string msg3 = ExpectThrowMessage(
      [] { (void)ParseRequestFrame("REQUEST id=a\nx\n"); });
  EXPECT_NE(msg3.find("missing scheduler="), std::string::npos);

  const std::string msg4 = ExpectThrowMessage([] {
    (void)ParseRequestFrame("REQUEST id=a scheduler=rle frobnicate=1\nx\n");
  });
  EXPECT_NE(msg4.find("unknown header key 'frobnicate'"), std::string::npos);
}

TEST(RequestFrameTest, RejectsNonFiniteDeadlinesNamingLineOne) {
  for (const char* deadline : {"inf", "nan", "-nan", "infinity", "1e400"}) {
    const std::string header =
        std::string("REQUEST id=a scheduler=rle deadline=") + deadline +
        " check=0000000000000000\nx\n";
    EXPECT_EQ(ExpectThrowMessage([&] { (void)ParseRequestHeader(header); }),
              "request frame line 1: deadline must be finite")
        << deadline;
  }
  // A negative infinity keeps its sign error.
  EXPECT_EQ(ExpectThrowMessage([] {
              (void)ParseRequestHeader(
                  "REQUEST id=a scheduler=rle deadline=-inf "
                  "check=0000000000000000\nx\n");
            }),
            "request frame line 1: deadline must be non-negative");
}

TEST(RequestFrameTest, MissingCheckTokenIsTransientCorruptionNotACallerBug) {
  // check= is mandatory: a flipped separator byte can merge the token
  // into its neighbour, and treating the result as a checkless frame
  // would disable verification exactly when it is needed.
  try {
    (void)ParseRequestFrame("REQUEST id=a scheduler=rle\nx\n");
    FAIL() << "expected a missing-check error";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kTransient);
    EXPECT_NE(std::string(e.what()).find("missing check="), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("request frame"), std::string::npos);
  }
}

TEST(RequestFrameTest, ASeparatorCorruptedIntoATabIsStillCaught) {
  // A space flipped into a tab keeps every token parseable (istream
  // splitting treats both as whitespace), so only the checksum can flag
  // it — and the check-token splice must be whitespace-aware or the tab
  // variant would silently skip verification instead.
  const std::string frame = FormatRequestFrame(MakeRequest());
  std::string tampered = frame.substr(0, frame.size() - 4);  // strip END
  const std::size_t space = tampered.find(" scheduler=");
  ASSERT_NE(space, std::string::npos);
  tampered[space] = '\t';
  try {
    (void)ParseRequestFrame(tampered);
    FAIL() << "expected a checksum mismatch";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kTransient);
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }

  // The degenerate cousin: the separator *before the check token itself*
  // flipped to a tab is spliced out with the token, reconstructing the
  // exact body the sender hashed — the frame verifies and parses, which
  // is correct: the corruption changed nothing the request means.
  std::string benign = frame.substr(0, frame.size() - 4);
  const std::size_t check_space = benign.find(" check=");
  ASSERT_NE(check_space, std::string::npos);
  benign[check_space] = '\t';
  EXPECT_EQ(ParseRequestFrame(benign).scheduler, "rle");
}

TEST(RequestFrameTest, ScenarioPayloadErrorsKeepTheirRowNumbers) {
  const SchedulingRequest request = MakeRequest();
  std::string frame = FormatRequestFrame(request);
  frame = frame.substr(0, frame.size() - 4);  // strip END
  // Corrupt the CSV block: drop the last data row's fields.
  const std::size_t last_newline = frame.find_last_of('\n', frame.size() - 2);
  frame = frame.substr(0, last_newline + 1) + "1.5,bogus\n";
  const std::string msg =
      ExpectThrowMessage([&] { (void)ParseRequestFrame(frame); });
  EXPECT_NE(msg.find("scenario payload"), std::string::npos);
}

TEST(RequestFrameTest, RejectsIdsWithWhitespace) {
  SchedulingRequest request = MakeRequest();
  request.id = "two words";
  EXPECT_THROW((void)FormatRequestFrame(request), util::HarnessError);
  request.id.clear();
  EXPECT_THROW((void)FormatRequestFrame(request), util::HarnessError);
}

TEST(ResponseLineTest, OkRoundTrip) {
  SchedulingResponse response;
  response.status = ResponseStatus::kOk;
  response.id = "r3";
  response.claimed_rate = 2.5000000000000004;  // %.17g must survive
  response.schedule = {0, 2, 17};
  const std::string line = FormatResponseLine(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const SchedulingResponse parsed = ParseResponseLine(line);
  EXPECT_TRUE(parsed.Ok());
  EXPECT_EQ(parsed.id, "r3");
  EXPECT_EQ(parsed.schedule, response.schedule);
  EXPECT_EQ(parsed.claimed_rate, response.claimed_rate);  // exact, not near
}

TEST(ResponseLineTest, EmptyScheduleUsesDashSentinel) {
  SchedulingResponse response;
  response.status = ResponseStatus::kOk;
  response.id = "r0";
  const std::string line = FormatResponseLine(response);
  EXPECT_NE(line.find("schedule=-"), std::string::npos);
  EXPECT_TRUE(ParseResponseLine(line).schedule.empty());
}

TEST(ResponseLineTest, ErrorRoundTripFlattensNewlines) {
  SchedulingResponse response;
  response.status = ResponseStatus::kShed;
  response.error_kind = util::ErrorKind::kTransient;
  response.id = "r9";
  response.message = "queue full\nretry later";
  const std::string line = FormatResponseLine(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const SchedulingResponse parsed = ParseResponseLine(line);
  EXPECT_EQ(parsed.status, ResponseStatus::kShed);
  EXPECT_EQ(parsed.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(parsed.message, "queue full retry later");
  EXPECT_EQ(parsed.ExitCode(), util::kExitRuntime);
}

TEST(ResponseLineTest, CacheHitDoesNotChangeTheBytes) {
  SchedulingResponse miss;
  miss.status = ResponseStatus::kOk;
  miss.id = "r1";
  miss.schedule = {4};
  miss.claimed_rate = 1.0;
  SchedulingResponse hit = miss;
  hit.cache_hit = true;
  EXPECT_EQ(FormatResponseLine(miss), FormatResponseLine(hit));
}

TEST(ResponseLineTest, RejectsGarbage) {
  EXPECT_THROW((void)ParseResponseLine(""), util::HarnessError);
  EXPECT_THROW((void)ParseResponseLine("MAYBE id=x"), util::HarnessError);
  EXPECT_THROW((void)ParseResponseLine("ERR id=x msg=no status"),
               util::HarnessError);
}

TEST(FrameAssemblerTest, AssemblesAcrossFeedsAndResets) {
  const SchedulingRequest request = MakeRequest();
  const std::string frame = FormatRequestFrame(request);
  FrameAssembler assembler;
  std::istringstream lines(frame);
  std::string line;
  bool completed = false;
  while (std::getline(lines, line)) {
    completed = assembler.Feed(line);
  }
  ASSERT_TRUE(completed);
  ASSERT_TRUE(assembler.Done());
  EXPECT_EQ(assembler.Parse().id, "r0");

  assembler.Reset();
  EXPECT_TRUE(assembler.Empty());
}

TEST(FrameAssemblerTest, TruncatedFrameNamesHowFarItGot) {
  FrameAssembler assembler;
  assembler.Feed("REQUEST id=a scheduler=rle");
  assembler.Feed("# fadesched scenario v1");
  assembler.Feed("alpha = 3");
  EXPECT_FALSE(assembler.Done());
  try {
    (void)assembler.Parse();
    ADD_FAILURE() << "a frame without END parsed";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(std::string(e.what()), TruncatedFrameMessage(3));
    EXPECT_NE(std::string(e.what()).find("after 3 line(s)"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing END"), std::string::npos);
  }
}

}  // namespace
}  // namespace fadesched::service
