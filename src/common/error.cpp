#include "common/error.hpp"

namespace cosmo {

void throw_invalid_argument(const char* msg) { throw InvalidArgument(msg); }

void throw_format_error(const char* msg) { throw FormatError(msg); }

void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}

void require_format(bool cond, const std::string& msg) {
  if (!cond) throw FormatError(msg);
}

}  // namespace cosmo
