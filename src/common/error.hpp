/// \file error.hpp
/// \brief Error handling primitives used across the library.
///
/// Follows the C++ Core Guidelines (E.2): throw exceptions to signal that a
/// function cannot perform its task. All library errors derive from
/// cosmo::Error so callers can catch one type at an API boundary.
#pragma once

#include <stdexcept>
#include <string>

namespace cosmo {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument outside the documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A serialized stream (compressed payload, container file) is malformed.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// An I/O operation on the filesystem failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A transient (retryable) failure: the operation may succeed if retried.
/// Thrown by the GPU simulator for injected soft errors; DeviceCompressor
/// retries these with bounded exponential backoff.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

/// Device memory was exhausted. Not retryable at the same footprint; callers
/// degrade by falling back to the matching host codec.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : Error(what) {}
};

/// Out-of-line, cold throwers behind the inline checks below: a passing
/// check compiles to one predictable branch and never touches the message.
[[noreturn, gnu::cold]] void throw_invalid_argument(const char* msg);
[[noreturn, gnu::cold]] void throw_format_error(const char* msg);

/// Throws InvalidArgument with \p msg when \p cond is false. Literal
/// messages bind here, so a check in a decode loop costs nothing when it
/// passes (see docs/architecture.md, "Checks are free when they pass").
inline void require(bool cond, const char* msg) {
  if (!cond) [[unlikely]] throw_invalid_argument(msg);
}

/// Throws FormatError with \p msg when \p cond is false.
inline void require_format(bool cond, const char* msg) {
  if (!cond) [[unlikely]] throw_format_error(msg);
}

/// Overloads for a message built at the call site. The caller pays for the
/// string whether or not the check passes: use them on cold paths only.
void require(bool cond, const std::string& msg);
void require_format(bool cond, const std::string& msg);

}  // namespace cosmo
