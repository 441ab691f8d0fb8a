/// \file trace.hpp
/// \brief A traced phase: the program's telemetry::Tracer armed around one
/// measured phase, folded into per-name busy and self time and per-op rows.
///
/// The benchmark wraps every public call it makes into the program (a
/// session compress, a run_pipeline, a client upload) in a
/// telemetry::SpanScope, so its spans and the program's share one ring, one
/// clock and one thread numbering. A span whose name starts with "op." is
/// an end-to-end op; analyze() breaks each one into rows that sum to its
/// wall time, with the op's own self time reported as "unattributed".
/// Ops that cross threads (an open-loop request is sent on one thread and
/// answered on another) are handed over whole with record_op().
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "stats.hpp"

namespace fbench {

/// One end-to-end op broken into rows (seconds) that sum to its wall time.
struct OpBreakdown {
  std::string name;
  double start_s = 0.0;  ///< from the phase start
  double wall_s = 0.0;
  std::map<std::string, double> rows;  ///< includes "unattributed"
};

/// What one traced phase recorded.
struct TraceReport {
  std::map<std::string, SpanTotals> totals;  ///< by span name, all threads
  std::vector<OpBreakdown> ops;
  double ops_wall_s = 0.0;        ///< summed wall time of the ops
  std::size_t spans = 0;          ///< Tracer spans folded
  std::size_t unbalanced_ops = 0; ///< ops whose rows miss their wall by > 5 %
  std::string chrome_json;        ///< Chrome trace_event document
};

class Trace {
 public:
  /// Arms the program's Tracer with a ring of \p ring_spans.
  void start(std::size_t ring_spans);

  /// Disarms the Tracer. Call once every thread that records spans has
  /// finished.
  void stop();

  [[nodiscard]] bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Keeps an op whose breakdown comes from reply fields instead of spans.
  /// Its "unattributed" row is its wall time minus \p rows. Thread-safe.
  void record_op(const char* name, Clock::time_point start, Clock::time_point end,
                 std::map<std::string, double> rows);

  /// Folds the phase's spans. Call after stop().
  [[nodiscard]] TraceReport analyze() const;

 private:
  std::atomic<bool> active_{false};
  Clock::time_point start_{};  ///< when the Tracer was armed (its clock's zero)

  mutable std::mutex mu_;  // guards given_
  std::vector<OpBreakdown> given_;
};

/// Runs \p fn inside a Tracer span named \p name (a string literal) and
/// returns its wall time in seconds, traced or not.
template <typename Fn>
double timed(const char* name, Fn&& fn) {
  const cosmo::telemetry::SpanScope span(name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace fbench
