#include "util/error.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/deadline.hpp"

namespace fadesched::util {
namespace {

std::exception_ptr Capture(const auto& thrower) {
  try {
    thrower();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

TEST(ErrorTest, KindNamesAreStable) {
  EXPECT_STREQ(ErrorKindName(ErrorKind::kTransient), "transient");
  EXPECT_STREQ(ErrorKindName(ErrorKind::kTimeout), "timeout");
  EXPECT_STREQ(ErrorKindName(ErrorKind::kInterrupted), "interrupted");
  EXPECT_STREQ(ErrorKindName(ErrorKind::kFatal), "fatal");
}

TEST(ErrorTest, ConvenienceConstructorsCarryKindAndMessage) {
  EXPECT_EQ(TransientError("x").kind(), ErrorKind::kTransient);
  EXPECT_EQ(TimeoutError("x").kind(), ErrorKind::kTimeout);
  EXPECT_EQ(InterruptedError("x").kind(), ErrorKind::kInterrupted);
  EXPECT_EQ(FatalError("x").kind(), ErrorKind::kFatal);
  EXPECT_STREQ(TimeoutError("deadline fired").what(), "deadline fired");
}

TEST(ErrorTest, ClassifyHarnessErrorReportsItsOwnKind) {
  EXPECT_EQ(ClassifyException(Capture([] { throw TimeoutError("t"); })),
            ErrorKind::kTimeout);
  EXPECT_EQ(ClassifyException(Capture([] { throw FatalError("f"); })),
            ErrorKind::kFatal);
  EXPECT_EQ(ClassifyException(Capture([] { throw InterruptedError("i"); })),
            ErrorKind::kInterrupted);
}

TEST(ErrorTest, ClassifyStandardExceptions) {
  // bad_alloc: memory pressure may clear — retry.
  EXPECT_EQ(ClassifyException(Capture([] { throw std::bad_alloc(); })),
            ErrorKind::kTransient);
  // logic_error (and CheckFailure) mark programming errors — never retry.
  EXPECT_EQ(
      ClassifyException(Capture([] { throw std::logic_error("bug"); })),
      ErrorKind::kFatal);
  EXPECT_EQ(ClassifyException(Capture([] { FS_CHECK_MSG(false, "bad"); })),
            ErrorKind::kFatal);
  // Unknown runtime errors default to transient so one odd seed cannot
  // abort a sweep.
  EXPECT_EQ(
      ClassifyException(Capture([] { throw std::runtime_error("io"); })),
      ErrorKind::kTransient);
}

TEST(ErrorTest, ExitCodesMatchTheDocumentedContract) {
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitRuntime, 1);
  EXPECT_EQ(kExitUsage, 2);
  EXPECT_EQ(kExitInterrupted, 3);
  EXPECT_EQ(ExitCodeForError(ErrorKind::kTimeout), kExitInterrupted);
  EXPECT_EQ(ExitCodeForError(ErrorKind::kInterrupted), kExitInterrupted);
  EXPECT_EQ(ExitCodeForError(ErrorKind::kTransient), kExitRuntime);
  EXPECT_EQ(ExitCodeForError(ErrorKind::kFatal), kExitRuntime);
}

TEST(DeadlineTest, DefaultConstructedIsDisabledAndNeverExpires) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.Enabled());
  EXPECT_FALSE(deadline.Expired());
}

TEST(DeadlineTest, NonPositiveBudgetDisables) {
  EXPECT_FALSE(Deadline::After(0.0).Enabled());
  EXPECT_FALSE(Deadline::After(-5.0).Enabled());
  EXPECT_FALSE(
      Deadline::After(std::numeric_limits<double>::quiet_NaN()).Enabled());
}

TEST(DeadlineTest, GenerousBudgetDoesNotExpireImmediately) {
  const Deadline deadline = Deadline::After(3600.0);
  EXPECT_TRUE(deadline.Enabled());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 3000.0);
}

// 1e10 s is about 317 years, past the steady clock's int64 nanoseconds:
// the conversion used to overflow, and the deadline read as expired.
TEST(DeadlineTest, BudgetPastTheClocksRangeSaturatesToNever) {
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity()}) {
    const Deadline deadline = Deadline::After(seconds);
    EXPECT_TRUE(deadline.Enabled()) << seconds;
    EXPECT_FALSE(deadline.Expired()) << seconds;
    EXPECT_TRUE(std::isinf(deadline.RemainingSeconds())) << seconds;
  }
  // A century is still inside the range, and stays a finite deadline.
  const double century = 100.0 * 365.25 * 86400.0;
  EXPECT_NEAR(Deadline::After(century).RemainingSeconds(), century, 1.0);
}

TEST(DeadlineTest, TinyBudgetExpires) {
  const Deadline deadline = Deadline::After(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_LE(deadline.RemainingSeconds(), 0.0);
}

}  // namespace
}  // namespace fadesched::util
