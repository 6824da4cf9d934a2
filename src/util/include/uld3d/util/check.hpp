// Error-handling primitives for the uld3d library.
//
// Following the C++ Core Guidelines (I.6, E.x) we express preconditions as
// named checking functions that throw on violation rather than macros.
//
// A passing check costs one branch and allocates nothing: the message is a
// std::string_view (a literal binds without building a std::string), and the
// exception text — "<file>:<line>: precondition failed: <message>" — is only
// assembled on failure.  Checks run inside the hottest loops (placement
// candidate scans, per-layer mapper calls), so a call site whose message
// needs concatenation (`"...: " + name`) should build it only on the failing
// branch, e.g. `if (!ok) expects(false, "...: " + name);`.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace uld3d {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// Thrown when an internal invariant fails (a library bug, not a user error).
class InvariantError : public Error {
 public:
  using Error::Error;
};

namespace detail {

/// "<file>:<line>: <kind> failed: <message>" — built on the failure path only.
[[nodiscard]] inline std::string check_failure_text(
    std::string_view kind, std::string_view message,
    const std::source_location& loc) {
  std::string text(loc.file_name());
  text += ':';
  text += std::to_string(loc.line());
  text += ": ";
  text += kind;
  text += " failed: ";
  text += message;
  return text;
}

}  // namespace detail

/// Check a documented precondition; throws PreconditionError on violation.
inline void expects(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw PreconditionError(
        detail::check_failure_text("precondition", message, loc));
  }
}

/// Check an internal invariant; throws InvariantError on violation.
inline void ensures(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw InvariantError(detail::check_failure_text("invariant", message, loc));
  }
}

}  // namespace uld3d
