#include "common/env.hpp"

#include <cstdlib>

namespace cosmo {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

}  // namespace cosmo
