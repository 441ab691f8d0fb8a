/// \file suite.hpp
/// \brief The workload interface shared by foresight_bench's workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "trace.hpp"

namespace fbench {

/// What the command line fixed for one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool smoke = false;       ///< tiny inputs, every check still on
  std::string work_dir;  ///< sockets and pipeline outputs go here
};

/// Named correctness checks. Any failure makes the run incorrect.
class Checks {
 public:
  /// Records a failure described by \p what unless \p ok. Thread-safe.
  void expect(bool ok, const std::string& what);

  [[nodiscard]] std::size_t failures() const;
  /// The first failure messages (bounded), for the run JSON.
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  mutable std::mutex mu_;
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Per-layer values a workload measured itself, by catalog name.
using LayerValues = std::map<std::string, double>;

/// What one measured phase produced.
struct Measurement {
  std::vector<double> op_seconds;  ///< end-to-end op latencies
  /// Set (>= 0) when the workload estimates its tail more robustly than by
  /// one quantile over all ops; reported as op_tail_ms.
  double op_tail_seconds = -1.0;
  /// Raw MB per second, from median times (per op type) or median window
  /// rates, so a burst of interference from outside does not move it.
  double throughput_mb_s = 0.0;
  double raw_bytes = 0.0;          ///< compression ratio numerator
  double compressed_bytes = 0.0;   ///< and denominator
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< failed, rejected or unanswered ops
  LayerValues layer;
  cosmo::json::Object detail;      ///< extra facts for the run JSON
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, references and warm state. Runs several times; each
  /// run replaces the previous state and setup_s is the median.
  virtual void setup() = 0;

  /// One measured phase of about \p seconds. Every call into the program
  /// runs inside a Tracer span, and every op inside one named "op.*" or is
  /// handed to \p trace whole, so a traced phase breaks down by layer.
  virtual Measurement measure(double seconds, Trace& trace) = 0;

  /// Per-layer values derived from a traced phase's spans.
  virtual void from_trace(const TraceReport& /*report*/, LayerValues& /*layer*/) {}

  /// Runs once after every phase: late checks and passes.
  virtual void finish(LayerValues& /*layer*/) {}

  /// Bytes of inputs and references the workload keeps resident.
  [[nodiscard]] virtual std::size_t working_set_bytes() const = 0;

  /// The quantile reported as op_tail_ms.
  [[nodiscard]] virtual double tail_quantile() const = 0;
};

std::unique_ptr<Workload> make_codec_snapshot(const Options& options, Checks& checks);
std::unique_ptr<Workload> make_pipeline_optimize(const Options& options, Checks& checks);
std::unique_ptr<Workload> make_service_small(const Options& options, Checks& checks);
std::unique_ptr<Workload> make_service_stream(const Options& options, Checks& checks);

/// `foresight_bench compare PARENT... -- CHANGE...` (compare.cpp).
int compare_runs(const std::vector<std::string>& args);

/// The seed of every dataset the benchmark measures. --seed orders the
/// work on them (pair order, arrival schedule, request mix) but does not
/// change them, so a compression ratio depends on the code alone and can
/// be held to a bound of 0 across runs with different seeds.
inline constexpr std::uint64_t kCorpusSeed = 42;

/// Independent sub-seed \p stream of \p seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A sub-seed that survives the trip through a JSON number (a double):
/// the top 52 bits of derive_seed().
[[nodiscard]] std::uint64_t dataset_seed(std::uint64_t seed, std::uint64_t stream);

/// The indices 0 .. n-1 in a seeded order.
[[nodiscard]] std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// crc32 of a float buffer's bytes.
[[nodiscard]] std::uint32_t values_crc(const std::vector<float>& values);

/// Seconds since \p t.
[[nodiscard]] inline double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Whether a phase that began at \p start runs another whole cycle of
/// about \p cycle_seconds: yes while that ends it nearer to \p seconds
/// than stopping now. Whole cycles give every run the same mix of ops.
[[nodiscard]] inline bool another_cycle(Clock::time_point start, double cycle_seconds,
                                        double seconds) {
  return since(start) + cycle_seconds / 2 < seconds;
}

}  // namespace fbench
