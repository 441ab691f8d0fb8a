#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "common/str.hpp"

namespace cosmo {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = std::string("1");  // a bare literal trips GCC 12's false -Wrestrict
    }
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Parses all of \p text as a T (finite, for floating point), else throws
/// InvalidArgument naming --key.
template <typename T>
T parse_whole(const std::string& key, const std::string& text, const char* expects) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  bool ok = ec == std::errc() && end == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw InvalidArgument("--" + key + " expects " + expects + " (got '" + text + "')");
  }
  return value;
}

}  // namespace

long CliArgs::get_int(const std::string& key, long fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : parse_whole<long>(key, it->second, "a whole number");
}

std::size_t CliArgs::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end()
             ? fallback
             : parse_whole<std::size_t>(key, it->second, "a non-negative whole number");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : parse_whole<double>(key, it->second, "a finite number");
}

}  // namespace cosmo
