#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>

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
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "1";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& key, long fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
}

std::size_t CliArgs::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw InvalidArgument("--" + key + " expects a non-negative whole number (got '" + text +
                          "')");
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

}  // namespace cosmo
