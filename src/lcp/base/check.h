#ifndef LCP_BASE_CHECK_H_
#define LCP_BASE_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace lcp {
namespace internal_check {

/// Accumulates a failure message and aborts the process when destroyed.
/// Used only via the LCP_CHECK macros below; invariant violations are
/// programmer errors, not recoverable conditions.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << "CHECK failed at " << file << ":" << line << ": " << condition
            << " ";
  }
  [[noreturn]] ~CheckFailure() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }
  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Helps the compiler understand that the streaming expression below is dead
// when the condition holds.
struct Voidify {
  void operator&&(const CheckFailure&) const {}
};

}  // namespace internal_check
}  // namespace lcp

/// Aborts with a message if `condition` is false. Additional context can be
/// streamed: LCP_CHECK(x > 0) << "x was " << x;
#define LCP_CHECK(condition)                                               \
  (condition) ? (void)0                                                    \
              : ::lcp::internal_check::Voidify() &&                        \
                    ::lcp::internal_check::CheckFailure(__FILE__, __LINE__, \
                                                        #condition)

#define LCP_CHECK_EQ(a, b) LCP_CHECK((a) == (b))
#define LCP_CHECK_NE(a, b) LCP_CHECK((a) != (b))
#define LCP_CHECK_LT(a, b) LCP_CHECK((a) < (b))
#define LCP_CHECK_LE(a, b) LCP_CHECK((a) <= (b))
#define LCP_CHECK_GT(a, b) LCP_CHECK((a) > (b))
#define LCP_CHECK_GE(a, b) LCP_CHECK((a) >= (b))

/// LCP_CHECK in builds without NDEBUG (Debug, and the sanitizer builds);
/// under NDEBUG the condition is still compiled but never evaluated.
#ifdef NDEBUG
#define LCP_DCHECK(condition) LCP_CHECK(true || (condition))
#else
#define LCP_DCHECK(condition) LCP_CHECK(condition)
#endif

#endif  // LCP_BASE_CHECK_H_
