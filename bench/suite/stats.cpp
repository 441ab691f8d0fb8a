#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace fbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps exact products (0.5 * 20) from rounding up.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank >= static_cast<double>(n) ? 0 : n - static_cast<std::size_t>(rank);
}

double highest_supported_quantile(std::size_t n, std::size_t min_beyond) {
  for (auto it = std::rbegin(kTailLadder); it != std::rend(kTailLadder); ++it) {
    if (samples_beyond(n, *it) >= min_beyond) return *it;
  }
  return 0.0;
}

Timing summarize(const std::vector<double>& samples, double tail_q) {
  Timing t;
  t.n = samples.size();
  t.p50 = median(samples);
  t.tail_q = tail_q;
  t.tail = quantile(samples, tail_q);
  t.tail_supported = samples_beyond(t.n, tail_q) >= 10;
  return t;
}

Quartiles quartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 1) return {samples[0], samples[0], samples[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4.
  double cuts[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

namespace {

/// Self time (ns) of each span of \p spans, which must be sorted by thread,
/// then start ascending, then end descending (parents before children).
std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    while (!open.empty() &&
           (spans[open.back()].tid != s.tid || spans[open.back()].end_ns <= s.start_ns)) {
      open.pop_back();
    }
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    self[i] += duration;
    if (!open.empty()) self[open.back()] -= duration;
    open.push_back(i);
  }
  return self;
}

bool nest_order(const SpanRec& a, const SpanRec& b) {
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  return a.end_ns > b.end_ns;
}

}  // namespace

std::map<std::string, SpanTotals> fold_spans(std::vector<SpanRec> spans) {
  std::sort(spans.begin(), spans.end(), nest_order);
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.busy_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    t.self_s += self[i] * 1e-9;
  }
  return totals;
}

std::map<std::string, double> attribute_op(const SpanRec& op,
                                           const std::vector<SpanRec>& spans) {
  std::vector<SpanRec> inside{op};
  for (const SpanRec& s : spans) {
    if (s.tid != op.tid || s.start_ns < op.start_ns || s.end_ns > op.end_ns) continue;
    if (s.name == op.name && s.start_ns == op.start_ns && s.end_ns == op.end_ns) continue;
    inside.push_back(s);
  }
  // The op stays first even when a child covers exactly the same window.
  std::stable_sort(inside.begin() + 1, inside.end(), nest_order);
  const std::vector<double> self = self_times(inside);
  std::map<std::string, double> rows;
  for (std::size_t i = 1; i < inside.size(); ++i) rows[inside[i].name] += self[i] * 1e-9;
  rows["unattributed"] += self[0] * 1e-9;
  return rows;
}

}  // namespace fbench
