/// \file cli.hpp
/// \brief Minimal command-line flag parsing for examples and benches.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace cosmo {

/// Parses "--key=value", "--key value", and bare "--flag" arguments.
/// Positional arguments are collected in order.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric flags must parse whole, or InvalidArgument names the flag.
  /// get_int takes a decimal integer, get_count (threads, sizes, seeds) a
  /// non-negative one, get_double a finite decimal number.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] std::size_t get_count(const std::string& key, std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace cosmo
