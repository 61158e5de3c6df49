// Internal invariant checks. These abort on failure and are active in all build
// types: a differential-privacy library must never silently continue past a
// violated precondition, since the consequence is usually a privacy (not just
// correctness) bug.

#ifndef DPCLUSTER_COMMON_CHECK_H_
#define DPCLUSTER_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace dpcluster {
namespace internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const char* detail = nullptr) {
  std::fprintf(stderr, "DPC_CHECK failed at %s:%d: %s%s%s\n", file, line, expr,
               detail != nullptr ? ": " : "", detail != nullptr ? detail : "");
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace dpcluster

/// Aborts if `cond` is false. Active in every build type.
#define DPC_CHECK(cond)                                              \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::dpcluster::internal::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                                \
  } while (0)

#define DPC_CHECK_GE(a, b) DPC_CHECK((a) >= (b))
#define DPC_CHECK_GT(a, b) DPC_CHECK((a) > (b))
#define DPC_CHECK_LE(a, b) DPC_CHECK((a) <= (b))
#define DPC_CHECK_LT(a, b) DPC_CHECK((a) < (b))
#define DPC_CHECK_EQ(a, b) DPC_CHECK((a) == (b))
#define DPC_CHECK_NE(a, b) DPC_CHECK((a) != (b))

#endif  // DPCLUSTER_COMMON_CHECK_H_
