// Precondition and invariant checks for dsmsort.
//
// A violated check throws dsm::Error (common/status.hpp) with code
// kInternal, for precondition violations and runtime misuse (mismatched
// message sizes, non-symmetric allocations, ...) so that tests can assert
// on failure injection instead of observing corruption.
#pragma once

#include <string>

#include "common/status.hpp"

namespace dsm {
namespace detail {

[[noreturn]] inline void fail(const char* kind, const char* cond,
                              const char* file, int line,
                              const std::string& msg) {
  std::string s(kind);
  s += " failed: ";
  s += cond;
  s += " at ";
  s += file;
  s += ":";
  s += std::to_string(line);
  if (!msg.empty()) {
    s += " — ";
    s += msg;
  }
  throw Error(std::move(s));
}

}  // namespace detail
}  // namespace dsm

/// Precondition check: active in all build types (cheap, on API boundaries).
#define DSM_REQUIRE(cond, msg)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::dsm::detail::fail("precondition", #cond, __FILE__, __LINE__, msg); \
    }                                                                      \
  } while (0)

/// Internal invariant check: active in all build types. These guard the
/// virtual-time accounting (negative waits, category overflow, ...).
#define DSM_CHECK(cond, msg)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::dsm::detail::fail("invariant", #cond, __FILE__, __LINE__, msg);  \
    }                                                                    \
  } while (0)

/// Debug-only invariant check for per-element hot loops: compiled out
/// under NDEBUG (the default RelWithDebInfo build), where the enclosing
/// loop's invariants are enforced once outside the loop instead.
#ifndef NDEBUG
#define DSM_DCHECK(cond, msg) DSM_CHECK(cond, msg)
#else
#define DSM_DCHECK(cond, msg) \
  do {                        \
  } while (0)
#endif
