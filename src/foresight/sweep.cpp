#include "foresight/sweep.hpp"

#include <cmath>

namespace cosmo::foresight {

namespace {

std::vector<double> log_spaced(double lo, double hi, std::size_t count) {
  require(lo > 0.0 && hi > lo, "sweep: need 0 < lo < hi");
  require(count >= 2, "sweep: need at least 2 points");
  std::vector<double> out(count);
  const double step = std::log(hi / lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo * std::exp(step * static_cast<double>(i));
  }
  return out;
}

}  // namespace

std::vector<CompressorConfig> configs_for_axis(const SweepAxis& axis, const Field& field) {
  switch (axis.kind) {
    case SweepAxis::Kind::kFixedValues: {
      require(!axis.values.empty(), "sweep: axis '" + axis.mode + "' has no values");
      std::vector<CompressorConfig> configs;
      for (const double v : axis.values) configs.push_back({axis.mode, v});
      return configs;
    }
    case SweepAxis::Kind::kRangeFractions: {
      const auto [lo, hi] = value_range(field.view());
      const double range = static_cast<double>(hi) - lo;
      require(range > 0.0, "sweep: field has zero value range");
      std::vector<CompressorConfig> configs;
      for (const double frac : log_spaced(axis.lo, axis.hi, axis.count)) {
        configs.push_back({axis.mode, range * frac});
      }
      return configs;
    }
    case SweepAxis::Kind::kLogValues: {
      std::vector<CompressorConfig> configs;
      for (const double v : log_spaced(axis.lo, axis.hi, axis.count)) {
        configs.push_back({axis.mode, v});
      }
      return configs;
    }
  }
  throw InvalidArgument("sweep: unknown axis kind");
}

std::vector<CompressorConfig> default_grid_candidates(const std::string& codec,
                                                      const Field& field) {
  // Throws InvalidArgument (listing the known codecs) for unknown names;
  // every codec-table row carries a default lattice.
  return configs_for_axis(codec_capabilities(codec).default_sweep.front(), field);
}

std::vector<CompressorConfig> default_position_candidates(const CodecCapabilities& caps) {
  if (caps.supports_mode("abs")) {
    return {{"abs", 0.001}, {"abs", 0.005}, {"abs", 0.025}, {"abs", 0.25}};
  }
  return {{"rate", 16.0}, {"rate", 8.0}, {"rate", 4.0}};
}

std::vector<CompressorConfig> default_velocity_candidates(const CodecCapabilities& caps,
                                                          const Field& velocity_field) {
  if (caps.supports_mode("pw_rel")) {
    return {{"pw_rel", 0.005}, {"pw_rel", 0.025}, {"pw_rel", 0.1}};
  }
  if (caps.supports_mode("rate")) return {{"rate", 8.0}, {"rate", 4.0}};
  return configs_for_axis({.mode = "abs",
                           .kind = SweepAxis::Kind::kRangeFractions,
                           .lo = 2e-5,
                           .hi = 2e-3,
                           .count = 3},
                          velocity_field);
}

}  // namespace cosmo::foresight
