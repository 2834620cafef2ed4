// Lightweight runtime checking macros.
//
// FS_CHECK is always on (used to validate API preconditions); FS_DCHECK
// compiles out in NDEBUG builds (used on hot paths).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fadesched::util {

/// Thrown when an FS_CHECK fails. Deriving from std::logic_error keeps the
/// failure catchable in tests while signalling a programming error.
/// what() is the expression and message only; the check's source location
/// is kept apart, so a message served to a client names no source path and
/// stays the same when the file that raised it is edited.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what, std::string location = {})
      : std::logic_error(what), location_(std::move(location)) {}

  /// "<file>:<line>" of the failed check, or empty.
  [[nodiscard]] const std::string& location() const { return location_; }

 private:
  std::string location_;
};

[[noreturn]] inline void RaiseCheckFailure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str(), std::string(file) + ":" + std::to_string(line));
}

}  // namespace fadesched::util

#define FS_CHECK(expr)                                                     \
  do {                                                                     \
    if (!(expr))                                                           \
      ::fadesched::util::RaiseCheckFailure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define FS_CHECK_MSG(expr, msg)                                              \
  do {                                                                       \
    if (!(expr))                                                             \
      ::fadesched::util::RaiseCheckFailure(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#ifdef NDEBUG
#define FS_DCHECK(expr) ((void)0)
#else
#define FS_DCHECK(expr) FS_CHECK(expr)
#endif
