#include "foresight/optimizer_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cosmo::foresight {

bool mode_loosens_with_larger_value(const std::string& mode) {
  if (mode == "abs" || mode == "pw_rel" || mode == "accuracy") return true;
  if (mode == "rate" || mode == "precision") return false;
  throw InvalidArgument("optimizer_model: unknown config mode '" + mode + "'");
}

std::vector<std::size_t> aggressiveness_order(
    const std::vector<CompressorConfig>& configs) {
  std::vector<std::size_t> order(configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (configs.empty()) return order;
  const std::string& mode = configs.front().mode;
  for (const auto& c : configs) {
    if (c.mode != mode) {
      throw InvalidArgument("aggressiveness_order: mixed modes ('" + mode + "' vs '" + c.mode +
                            "'); partition by mode first");
    }
  }
  const bool loosens = mode_loosens_with_larger_value(mode);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loosens ? configs[a].value < configs[b].value
                   : configs[a].value > configs[b].value;
  });
  return order;
}

std::vector<std::size_t> probe_positions(std::size_t n, std::size_t probes) {
  if (n == 0) return {};
  if (n == 1) return {0};
  probes = std::clamp<std::size_t>(probes, 2, n);
  std::vector<std::size_t> out;
  out.reserve(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    // Evenly spread including both endpoints; integer rounding dedups below.
    const double t = static_cast<double>(i) / static_cast<double>(probes - 1);
    out.push_back(static_cast<std::size_t>(std::lround(t * static_cast<double>(n - 1))));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void RateQualityModel::add_point(double value, double ratio, double deviation) {
  require(value > 0.0, "RateQualityModel: config value must be > 0");
  const double lv = std::log(value);
  const auto it = std::lower_bound(
      pts_.begin(), pts_.end(), lv,
      [](const Point& p, double key) { return p.log_value < key; });
  if (it != pts_.end() && it->log_value == lv) {
    it->ratio = ratio;
    it->deviation = deviation;
    return;
  }
  pts_.insert(it, Point{lv, ratio, deviation});
}

double RateQualityModel::interpolate(double lv, bool log_ratio) const {
  require(!pts_.empty(), "RateQualityModel: no points fitted");
  const auto pick = [&](const Point& p) { return log_ratio ? p.ratio : p.deviation; };
  if (pts_.size() == 1 || lv <= pts_.front().log_value) return pick(pts_.front());
  if (lv >= pts_.back().log_value) return pick(pts_.back());
  const auto hi = std::lower_bound(
      pts_.begin(), pts_.end(), lv,
      [](const Point& p, double key) { return p.log_value < key; });
  const auto lo = hi - 1;
  const double t = (lv - lo->log_value) / (hi->log_value - lo->log_value);
  if (log_ratio) {
    // Log-log: ratios are positive (floored at 1 by the caller's data), and
    // rate-distortion curves are close to straight lines in log-log space.
    const double a = std::log(std::max(pick(*lo), 1e-300));
    const double b = std::log(std::max(pick(*hi), 1e-300));
    return std::exp(a + t * (b - a));
  }
  return pick(*lo) + t * (pick(*hi) - pick(*lo));
}

double RateQualityModel::predict_ratio(double value) const {
  require(value > 0.0, "RateQualityModel: config value must be > 0");
  return std::max(1.0, interpolate(std::log(value), /*log_ratio=*/true));
}

double RateQualityModel::predict_deviation(double value) const {
  require(value > 0.0, "RateQualityModel: config value must be > 0");
  return std::max(0.0, interpolate(std::log(value), /*log_ratio=*/false));
}

std::size_t bisect_next(std::size_t lo, std::size_t hi) {
  require(lo < hi, "bisect_next: need lo < hi");
  if (hi - lo <= 1) return kBisectDone;
  return lo + (hi - lo) / 2;
}

}  // namespace cosmo::foresight
