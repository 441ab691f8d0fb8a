/// \file stats.hpp
/// \brief Sample statistics and span folding for foresight_bench.
///
/// Timings are reported as a median plus the highest percentile that has at
/// least ten samples beyond it, with the sample count. Span folding turns
/// recorded spans into busy time (span durations summed over threads) and
/// same-thread self time (a span minus the part of it its children on the
/// same thread cover), which is how an end-to-end op breaks down into rows
/// that sum to its wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fbench {

using Clock = std::chrono::steady_clock;

/// Linear-interpolated quantile (q in [0, 1]) of \p samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// Number of samples ranked beyond the q-quantile: n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The percentiles a tail is chosen from, highest last.
inline constexpr double kTailLadder[] = {0.5, 0.75, 0.9, 0.95, 0.99, 0.999};

/// The highest quantile of kTailLadder with at least \p min_beyond samples
/// beyond it, or 0 when not even the median qualifies.
[[nodiscard]] double highest_supported_quantile(std::size_t n, std::size_t min_beyond = 10);

/// A timing as reported: median and a declared tail quantile, with the
/// sample count and whether that count supports the tail (ten beyond it).
struct Timing {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  bool tail_supported = false;
};

[[nodiscard]] Timing summarize(const std::vector<double>& samples, double tail_q);

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's statistics.quantiles(n=4), so spreads match external tooling.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// One open-loop request: when it was due, when the generator sent it and
/// when its reply arrived. Latency runs from the due time, so a stall also
/// delays every request queued behind it.
struct OpenLoopRequest {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};

  /// Seconds from due to reply.
  [[nodiscard]] double latency() const {
    return std::chrono::duration<double>(done - due).count();
  }
  /// Seconds the generator sent late.
  [[nodiscard]] double generator_lag() const {
    return std::chrono::duration<double>(sent - due).count();
  }
};

/// One span: name, thread, [start, end) in nanoseconds on a shared clock.
struct SpanRec {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::size_t count = 0;
  double busy_s = 0.0;  ///< summed durations (inclusive of children)
  double self_s = 0.0;  ///< durations minus same-thread child coverage
};

/// Folds spans from any number of threads into per-name totals. Spans on
/// one thread nest: a child lies inside its parent, as RAII spans on one
/// clock always do.
[[nodiscard]] std::map<std::string, SpanTotals> fold_spans(std::vector<SpanRec> spans);

/// Breaks \p op down into rows: the self time of every span on the op's
/// thread inside the op window, keyed by name, plus the op's own self time
/// as "unattributed". The rows sum to the op's wall time. The op itself and
/// spans on other threads or outside the window are ignored.
[[nodiscard]] std::map<std::string, double> attribute_op(const SpanRec& op,
                                                         const std::vector<SpanRec>& spans);

}  // namespace fbench
