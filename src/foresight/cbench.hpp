/// \file cbench.hpp
/// \brief CBench: Foresight's compression benchmark component.
///
/// "CBench provides researchers with an interface to test different lossy
/// compressors and determine the best-fit compression configuration based
/// on their demands. The benchmarking results include compression ratio,
/// data distortion (e.g., MRE, MSE, PSNR), compression and decompression
/// throughput, and the reconstructed dataset for the following analysis"
/// (paper Section IV-A1).
///
/// CBench::run_session is the one compress → fault hook → decompress →
/// distortion path, and JobScheduler the one loop over such jobs, for
/// sweeps, the optimizer and foresightd alike. Jobs are pre-indexed into
/// result slots, so the parallel scheduler produces output identical to the
/// serial path — only wall-clock changes. Codecs that cannot run sessions
/// concurrently (the simulated-GPU codecs' shared timing stream) always take
/// the serial path, keeping their modeled timings byte-for-byte stable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "common/cancel.hpp"
#include "foresight/compressor.hpp"
#include "io/container.hpp"

namespace cosmo::foresight {

/// One row of CBench output.
struct CBenchResult {
  std::string dataset;
  std::string field;
  std::string compressor;
  CompressorConfig config;

  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;  ///< size of the clean stream, before the fault hook
  std::uint32_t stream_crc32 = 0;    ///< crc32 of the clean stream, before the fault hook
  bool corrupted = false;            ///< the fault hook corrupted the stream before decode
  double ratio = 0.0;     ///< original / compressed
  double bit_rate = 0.0;  ///< bits per value

  analysis::Distortion distortion;

  /// Per-stage timing/fallback/retry facts, verbatim from the codec session.
  StageTelemetry compress;
  StageTelemetry decompress;
  double compress_gbps = 0.0;   ///< uncompressed bytes / compress time
  double decompress_gbps = 0.0;
  bool throughput_reportable = true;

  /// "ok", or "failed" when the job threw and the sweep was configured to
  /// continue; failed rows keep their identity columns but carry no metrics.
  std::string status = "ok";
  std::string error;  ///< diagnostic for failed rows, empty otherwise

  /// Reconstructed data for downstream analysis (kept when requested).
  std::vector<float> reconstructed;

  /// Device-OOM degraded a stage to the host codec.
  [[nodiscard]] bool cpu_fallback() const { return any_cpu_fallback(compress, decompress); }
  /// Max device attempts across stages (transient-fault retries).
  [[nodiscard]] int device_attempts() const {
    return max_device_attempts(compress, decompress);
  }
};

/// What a JobScheduler run does when one job throws a cosmo::Error: kAbort
/// rethrows, kContinue records a "failed" row for that job and keeps going.
/// Cancellation, deadlines and non-cosmo exceptions always propagate.
enum class OnError { kAbort, kContinue };

/// Parses "abort" / "continue"; anything else throws InvalidArgument.
OnError parse_on_error(const std::string& text);

/// Benchmark driver.
class CBench {
 public:
  struct Options {
    /// Keep reconstructed data in each result (needed by PAT analyses).
    bool keep_reconstructed = true;
    std::string dataset_name = "dataset";
    /// Worker threads for sweep(): 1 runs serially in the calling thread
    /// (the timing-faithful path the throughput benches use), 0 the global
    /// pool, N a dedicated pool of at most one thread per job.
    std::size_t threads = 1;
    /// Intra-field threads inside each codec session (same 1/0/N convention
    /// as \p threads; see PoolHandle). Applied by run_one() and by sweeps
    /// that run sessions serially — including codecs whose sessions cannot
    /// run concurrently, which is how a gpu-safe sweep still threads its CPU
    /// kernels. Sweeps already running one session per worker keep their
    /// sessions serial (the jobs themselves saturate the pool). Streams are
    /// byte-identical for any value (the codecs use fixed chunk geometry).
    std::size_t session_threads = 1;
    /// Error policy for sweep()/run_one(); see foresight::OnError.
    OnError on_error = OnError::kAbort;
  };

  CBench() = default;
  explicit CBench(Options options) : options_(std::move(options)) {}

  /// Runs one (field, compressor, config) combination over a fresh session.
  /// Honors Options::on_error: under kContinue a throwing job comes back as
  /// a "failed" row instead of propagating.
  CBenchResult run_one(const Field& field, Compressor& compressor,
                       const CompressorConfig& config) const;

  /// Runs one combination over a caller-held session (buffers in the
  /// session's arena are reused across calls): compress, the fault-injection
  /// hook, decompress, distortion. A non-null \p token is checked before
  /// each of those stages ("compress", "corrupt", "decompress", "analyze").
  CBenchResult run_session(const Field& field, const std::string& compressor_name,
                           CodecSession& session, const CompressorConfig& config,
                           const CancelToken* token = nullptr) const;

  /// run_session() variant that also reuses the caller's result scratch
  /// (\p c and \p d are clobbered) — the form JobScheduler jobs use.
  CBenchResult run_session(const Field& field, const std::string& compressor_name,
                           CodecSession& session, const CompressorConfig& config,
                           CompressResult& c, DecompressResult& d,
                           const CancelToken* token = nullptr) const;

  /// Full sweep: every field in \p container x every config. A null
  /// \p field_filter accepts all fields. Results are ordered field-major,
  /// config-minor regardless of Options::threads.
  std::vector<CBenchResult> sweep(
      const io::Container& container, Compressor& compressor,
      const std::vector<CompressorConfig>& configs,
      const std::function<bool(const std::string&)>& field_filter = nullptr) const;

  /// Aggregate ratio across a set of results (total original bytes over
  /// total compressed bytes — how the paper reports "overall compression
  /// ratio" for a six-field configuration).
  static double overall_ratio(const std::vector<CBenchResult>& results);

 private:
  struct Job {
    const Field* field;
    const CompressorConfig* config;
  };
  /// Runs \p jobs through a JobScheduler; results are slotted by job index.
  std::vector<CBenchResult> run_jobs(Compressor& compressor, const std::vector<Job>& jobs,
                                     std::size_t threads) const;

  Options options_{};
};

/// The one runner of jobs [0, count) over codec sessions, behind CBench,
/// the optimizer and foresightd's sweeps. It runs on the caller's \p pool
/// (null: serial) and owns no pool itself. It alone owns:
/// - the serial-vs-pool choice: serial when the pool is null or has one
///   thread, when the codec's sessions cannot run concurrently, or when
///   count <= 1;
/// - the atomic-cursor loop with one session per worker, min(pool size,
///   count, max_in_flight) of them, the calling thread running the first,
///   so a run never has more jobs in flight than its pool has threads;
/// - waiting by helping, as parallel_for does, so a run issued from inside
///   a task of the same pool cannot deadlock;
/// - the on_error policy: under kContinue a cosmo::Error from job i goes to
///   \p failed(i, error), while CancelledError and DeadlineExceededError
///   always propagate.
/// Every loop, serial or pooled, runs inside one \p worker_span span. In
/// pooled runs both callbacks run concurrently on the workers. Serial jobs
/// run on \p serial_session, asked for per job (null: a session the
/// scheduler opens on \p pool on first use and keeps, like its result
/// scratch, so one job at a time still threads its codec kernels).
class JobScheduler {
 public:
  using Job = std::function<void(std::size_t index, CodecSession& session,
                                 CompressResult& c, DecompressResult& d)>;
  using Failed = std::function<void(std::size_t index, const Error& error)>;
  using SessionSource = std::function<CodecSession&()>;

  JobScheduler(Compressor& compressor, ThreadPool* pool, OnError on_error,
               const char* worker_span, SessionSource serial_session = nullptr)
      : compressor_(compressor),
        pool_(pool),
        on_error_(on_error),
        worker_span_(worker_span),
        serial_session_(std::move(serial_session)) {}

  /// Runs jobs [0, count), at most \p max_in_flight of them at once.
  void run(std::size_t count, const Job& job, const Failed& failed,
           std::size_t max_in_flight = SIZE_MAX);

 private:
  Compressor& compressor_;
  ThreadPool* pool_;
  OnError on_error_;
  const char* worker_span_;
  SessionSource serial_session_;
  std::unique_ptr<CodecSession> owned_session_;
  CompressResult c_;
  DecompressResult d_;
};

/// Renders results as an aligned text table (one line per result), including
/// a flags column with host-fallback / device-retry marks.
std::string format_results(const std::vector<CBenchResult>& results);

/// The flags cell for one result: "cpu-fb" when a stage degraded to the host
/// codec, "xN" for N device attempts, "-" for a clean run (comma-joined when
/// both apply). Shared by format_results and the markdown report.
std::string result_flags(const CBenchResult& r);

}  // namespace cosmo::foresight
