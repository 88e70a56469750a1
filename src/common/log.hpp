// Assertion and diagnostic helpers.
//
// DSM_ASSERT is active in every build type: a protocol-invariant
// violation in a simulator silently corrupts results, so we always pay
// the (cheap) check. DSM_DEBUG_ASSERT compiles out in NDEBUG builds and
// is used on hot paths (per-reference checks).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace dsm {

[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);

namespace detail {
inline std::string assert_msg() { return {}; }
inline std::string assert_msg(std::string m) { return m; }
inline std::string assert_msg(const char* m) { return m; }
}  // namespace detail

}  // namespace dsm

#define DSM_ASSERT(expr, ...)                                          \
  do {                                                                 \
    if (!(expr)) [[unlikely]] {                                        \
      ::dsm::assert_fail(#expr, __FILE__, __LINE__,                    \
                         ::dsm::detail::assert_msg(__VA_ARGS__));      \
    }                                                                  \
  } while (0)

// The NDEBUG form names `expr` in an unevaluated operand, so variables
// that exist only for the check stay "used" without generating code.
#ifdef NDEBUG
#define DSM_DEBUG_ASSERT(expr, ...) \
  do {                              \
    (void)sizeof(!(expr));          \
  } while (0)
#else
#define DSM_DEBUG_ASSERT(expr, ...) DSM_ASSERT(expr, __VA_ARGS__)
#endif
