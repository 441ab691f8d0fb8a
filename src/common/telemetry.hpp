/// \file telemetry.hpp
/// \brief The observability layer: per-stage timing facts, span tracing and
/// a process-wide metrics registry.
///
/// Three pieces, mirroring the paper's throughput methodology (Figs. 7-10
/// are entirely about *where time goes*):
///
///  1. StageTelemetry — the one value type holding what a codec stage
///     reports about itself (wall/modeled seconds, the Fig.-7
///     {init, kernel, memcpy, free} breakdown, host-fallback and
///     device-retry facts). CompressResult / DecompressResult /
///     CBenchResult all embed it instead of re-declaring the fields.
///
///  2. Span tracing — TRACE_SPAN("zfp.encode") RAII scopes recording into a
///     lock-free ring buffer, exported as Chrome trace_event JSON
///     (chrome://tracing, Perfetto). Off by default: a disabled span costs
///     one relaxed atomic load, streams and modeled GPU timings are
///     byte-identical whether tracing is on or off.
///
///  3. MetricsRegistry — named counters / gauges / histograms (bytes
///     in/out, device retries, host fallbacks, arena high-water, sweep
///     queue wait), exported as JSON by `foresight_cli run --metrics-out`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cosmo {

/// Fig. 7's four components, in seconds.
struct TimingBreakdown {
  double init = 0.0;    ///< parameter upload + device allocation
  double kernel = 0.0;  ///< (de)compression kernel
  double memcpy = 0.0;  ///< compressed-data transfer over PCIe
  double free = 0.0;    ///< device deallocation

  [[nodiscard]] double total() const { return init + kernel + memcpy + free; }
};

/// Everything one codec stage (a compress or a decompress) reports about
/// its own execution. Result objects are reused across sweep iterations, so
/// stages must call one of the reset helpers up front instead of relying on
/// the member defaults.
struct StageTelemetry {
  double seconds = 0.0;  ///< measured (CPU) or modeled total (GPU)
  bool has_gpu_timing = false;
  TimingBreakdown gpu_timing;  ///< valid only when has_gpu_timing
  /// Device-OOM degraded this stage to the matching host codec: the stream
  /// is bit-identical, seconds is measured host wall time.
  bool cpu_fallback = false;
  int device_attempts = 1;  ///< device attempts incl. transient-fault retries

  /// Resets to the measured-CPU defaults (seconds left for the stage to set).
  void reset_cpu() { *this = StageTelemetry{}; }

  /// Resets to the modeled-GPU defaults.
  void reset_gpu() {
    *this = StageTelemetry{};
    has_gpu_timing = true;
  }

  /// Records a modeled device execution.
  void set_device(const TimingBreakdown& timing, int attempts) {
    has_gpu_timing = true;
    cpu_fallback = false;
    gpu_timing = timing;
    seconds = timing.total();
    device_attempts = attempts;
  }

  /// Degrades a GPU stage to its host codec (seconds set by the caller from
  /// a wall-clock timer; the modeled breakdown no longer applies).
  void mark_cpu_fallback() {
    has_gpu_timing = false;
    gpu_timing = TimingBreakdown{};
    cpu_fallback = true;
  }
};

/// Cross-stage rollups for a (compress, decompress) pair folded into one row.
[[nodiscard]] inline bool any_cpu_fallback(const StageTelemetry& c, const StageTelemetry& d) {
  return c.cpu_fallback || d.cpu_fallback;
}
[[nodiscard]] inline int max_device_attempts(const StageTelemetry& c,
                                             const StageTelemetry& d) {
  return c.device_attempts > d.device_attempts ? c.device_attempts : d.device_attempts;
}

namespace telemetry {

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// One completed span. `name` must be a string literal (the tracer stores
/// the pointer, not a copy). Times are nanoseconds since Tracer::enable().
struct SpanRecord {
  const char* name = nullptr;
  std::uint32_t tid = 0;    ///< dense per-thread index (first span wins 0)
  std::uint32_t depth = 0;  ///< nesting depth at entry (0 = top level)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t seq = 0;  ///< global completion sequence number
};

/// Process-wide span recorder. Disabled by default; while disabled a
/// TRACE_SPAN costs one relaxed atomic load and records nothing, so the
/// instrumented hot paths stay byte- and timing-identical to uninstrumented
/// code (the <1% overhead contract bench_report --trace-overhead measures).
///
/// Recording is thread-safe and lock-free (atomic cursor into a fixed ring;
/// the oldest spans are overwritten once the ring wraps — see dropped()).
/// snapshot() / chrome_trace_json() are meant for quiescent points (after a
/// sweep returns); they are not synchronized against concurrent recorders.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  /// Starts recording into a fresh ring of \p capacity spans and resets the
  /// clock. Safe to call when already enabled (re-arms with a fresh ring).
  static void enable(std::size_t capacity = kDefaultCapacity);

  /// Stops recording. The buffer is kept, so snapshot()/export still work.
  static void disable();

  [[nodiscard]] static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Drops all recorded spans (keeps the enabled state and capacity).
  static void clear();

  /// Completed spans in start-time order.
  [[nodiscard]] static std::vector<SpanRecord> snapshot();

  /// Spans lost to ring wrap-around since enable()/clear().
  [[nodiscard]] static std::size_t dropped();

  /// Chrome trace_event JSON ("X" complete events; load in chrome://tracing
  /// or Perfetto). Each event carries args.depth for nesting validation.
  [[nodiscard]] static std::string chrome_trace_json();

 private:
  friend class SpanScope;
  static std::atomic<bool>& enabled_flag();
  static std::uint64_t now_ns();
  static void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                     std::uint32_t depth);
};

/// RAII span. Constructed with a string-literal name; records on destruction
/// when tracing was enabled at entry. Use via TRACE_SPAN.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (Tracer::enabled()) begin(name);
  }
  ~SpanScope() {
    if (name_ != nullptr) end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter (events, bytes).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge with a high-water mark (arena capacity, queue depth).
class Gauge {
 public:
  void set(std::int64_t v);
  /// Raises the high-water mark without touching the last value.
  void maximize(std::int64_t v);
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Log2-bucketed histogram over unsigned values. Durations are observed in
/// nanoseconds (observe_seconds converts), so bucket i holds observations
/// with bit-width i, and the JSON export reports count/sum/max plus the
/// non-empty buckets.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  void observe(std::uint64_t v);
  void observe_seconds(double seconds);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Process-wide named-metric registry. Lookup takes a mutex; hot call sites
/// cache the returned reference (metric objects have stable addresses for
/// the process lifetime). Values are always recorded — the atomics are cheap
/// enough to leave on — and reset() exists so tests can scope assertions.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with sorted
  /// keys (deterministic output for tests and diffing).
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every registered metric (names stay registered).
  void reset();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace telemetry
}  // namespace cosmo

// Two-step expansion so __LINE__ produces distinct variable names when two
// spans open in one scope.
#define COSMO_TRACE_CONCAT2(a, b) a##b
#define COSMO_TRACE_CONCAT(a, b) COSMO_TRACE_CONCAT2(a, b)

/// Opens an RAII trace span covering the rest of the enclosing scope.
/// \p name must be a string literal (the tracer keeps the pointer).
#define TRACE_SPAN(name) \
  ::cosmo::telemetry::SpanScope COSMO_TRACE_CONCAT(cosmo_trace_span_, __LINE__)(name)
