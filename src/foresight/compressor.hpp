/// \file compressor.hpp
/// \brief Foresight's uniform compressor interface and its codec table.
///
/// CBench evaluates every codec through this interface. Each codec is
/// described once, by one row of a static table in compressor.cpp: its
/// CodecCapabilities (name, modes, kernel profile, flags, default sweep),
/// its span names and its host kernels. make_compressor,
/// available_compressors and codec_capabilities read that table; every layer
/// that would otherwise string-match codec names (the sweep-lattice builder,
/// the optimizer's config pruning, the pipeline's plot styling, the CLI,
/// the bench figure binaries) queries capabilities instead. The table holds
/// the paper's evaluation codecs (gpu-sz, cuzfp, sz-cpu, zfp-cpu) plus the
/// FZ-GPU-style bitshuffle pipeline (fz-cpu, fz-gpu); `foresight_cli codecs`
/// prints it.
///
/// The execution path is staged: a Compressor opens a CodecSession, and the
/// session exposes compress() and decompress() separately so sweeps can
/// reuse buffers across iterations, keep compressed streams around for
/// several decompressions, or skip decompression entirely. The fused
/// compress → decompress → compare run is CBench's (cbench.hpp).
///
/// One Compressor class serves every row and opens one of two sessions. Host
/// codecs (sz-cpu, zfp-cpu, fz-cpu) get the host session, which times the
/// kernel on the host clock. Simulated-GPU codecs (gpu-sz, cuzfp, fz-gpu)
/// get the device session: it runs the same kernel once, then models the
/// device's {init, kernel, memcpy, free} breakdown on the GpuSimulator at
/// the codec's kernel profile, retrying transient device faults. On a
/// device OOM it keeps the stream it already has and reports the measured
/// wall time as a CPU fallback.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/field.hpp"
#include "common/scratch_arena.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "foresight/shape_adapter.hpp"
#include "gpu/sim.hpp"
#include "json/json.hpp"

namespace cosmo::foresight {

/// One axis of a codec's default sweep lattice: the mode plus how to turn
/// a field into concrete config values.
struct SweepAxis {
  enum class Kind {
    kFixedValues,     ///< use \c values verbatim (e.g. ZFP rates)
    kRangeFractions,  ///< log-spaced fractions of the field's value range
    kLogValues,       ///< log-spaced absolute values, field-independent
  };
  std::string mode;
  Kind kind = Kind::kFixedValues;
  std::vector<double> values = {};  ///< kFixedValues only
  double lo = 0.0;                  ///< kRangeFractions / kLogValues span
  double hi = 0.0;
  std::size_t count = 0;
};

/// Everything the dispatch layers need to know about a codec without
/// naming it.
struct CodecCapabilities {
  std::string name;
  std::string summary;                ///< one line for `foresight_cli codecs`
  std::vector<std::string> modes;     ///< supported CompressorConfig modes
  bool throughput_reportable = true;  ///< kernel GB/s is meaningful for this codec
  bool plot_dashed = false;           ///< drawn dashed in rate-distortion figures
  /// sz::estimate_rate predicts this codec's abs-mode bitrate (the codec's
  /// abs path is the SZ prediction+quantization pipeline). The guided
  /// optimizer uses the estimator for pruned-candidate CR predictions.
  bool abs_rate_estimable = false;
  std::string kernel_profile = {};       ///< GpuSimulator::kernel_rates() key; empty = host-only
  std::vector<SweepAxis> default_sweep;  ///< per-mode lattices; front() is the primary

  /// A codec with a kernel profile runs on the simulated device, so it
  /// needs a GpuSimulator to construct.
  [[nodiscard]] bool needs_device() const { return !kernel_profile.empty(); }
  /// Sessions may run on parallel workers with identical results. Device
  /// codecs share the simulator's jitter stream, so their modeled timings
  /// are call-order dependent.
  [[nodiscard]] bool concurrent_sessions_safe() const { return kernel_profile.empty(); }
  [[nodiscard]] bool supports_mode(const std::string& mode) const;
  /// "abs, pw_rel" — for error messages and the CLI table.
  [[nodiscard]] std::string modes_label() const;
  /// Throws InvalidArgument listing the supported modes when \p mode is
  /// not one of them.
  void require_mode(const std::string& mode) const;
};

/// One compression configuration, e.g. {mode: "abs", value: 0.2}.
struct CompressorConfig {
  std::string mode;    ///< "abs" | "pw_rel" | "rate" | "accuracy" | "precision"
  double value = 0.0;  ///< error bound (abs/pw_rel/accuracy), bits/value (rate),
                       ///< or bit count (precision)

  [[nodiscard]] std::string label() const;
};

/// Parses a JSON array of {"mode": string, "value": number} objects: the one
/// reader of config lists (pipeline runs, optimizer candidates, foresightd
/// sweeps). Throws FormatError on any other shape.
std::vector<CompressorConfig> parse_config_list(const json::Value& list);

/// The inverse of parse_config_list.
json::Value config_list_json(const std::vector<CompressorConfig>& configs);

/// Output of the compression stage. Self-contained: everything decompress()
/// needs travels with the stream. The per-stage timing/fallback/retry facts
/// live in one StageTelemetry (shared with DecompressResult and
/// CBenchResult).
struct CompressResult {
  std::vector<std::uint8_t> bytes;
  /// Value count of the original field, before any 1-D -> 3-D zero padding;
  /// decompress() truncates reconstructions back to this. 0 means unknown
  /// (no truncation).
  std::size_t original_values = 0;
  StageTelemetry telemetry;
  bool throughput_reportable = true;  ///< false for GPU-SZ and after a device OOM

  [[nodiscard]] double seconds() const { return telemetry.seconds; }
};

/// Output of the decompression stage.
struct DecompressResult {
  std::vector<float> values;
  StageTelemetry telemetry;

  [[nodiscard]] double seconds() const { return telemetry.seconds; }
};

/// One codec execution context. Sessions own (or borrow) a ScratchArena so
/// repeated compress/decompress calls reuse buffer capacity; passing the
/// in/out overloads the same result objects across iterations reuses their
/// capacity too. A session is NOT thread-safe — the sweep scheduler opens
/// one per worker.
class CodecSession {
 public:
  virtual ~CodecSession() = default;

  /// Compresses \p field under \p config into \p out, reusing \p out's
  /// buffer capacity.
  virtual void compress(const Field& field, const CompressorConfig& config,
                        CompressResult& out) = 0;

  /// Decompresses \p compressed into \p out, reusing \p out's buffer
  /// capacity. Reconstructions are truncated to compressed.original_values
  /// (dropping reshape padding) when that is non-zero.
  virtual void decompress(const CompressResult& compressed, DecompressResult& out) = 0;

  /// By-value conveniences over the in/out virtuals.
  [[nodiscard]] CompressResult compress(const Field& field, const CompressorConfig& config);
  [[nodiscard]] DecompressResult decompress(const CompressResult& compressed);

  /// The arena backing this session's scratch allocations.
  [[nodiscard]] ScratchArena& arena() { return *arena_; }

  /// The pool this session's intra-field kernels fan out on (null = serial).
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

 protected:
  /// Borrows \p arena, or owns a private one when \p arena is null.
  /// \p pool is the intra-field parallelism knob; sessions that parallelize
  /// pass it down to the codec hot paths, which guarantee byte-identical
  /// streams for any thread count.
  explicit CodecSession(ScratchArena* arena, ThreadPool* pool = nullptr)
      : owned_(arena ? nullptr : std::make_unique<ScratchArena>()),
        arena_(arena ? arena : owned_.get()),
        pool_(pool) {}

 private:
  std::unique_ptr<ScratchArena> owned_;
  ScratchArena* arena_;
  ThreadPool* pool_ = nullptr;
};

/// Abstract compressor as seen by CBench: a codec-table row that describes
/// a codec (through its CodecCapabilities) and opens execution sessions for
/// it. Name and concurrency facts are views over capabilities(), so a
/// codec's single source of truth is its table row.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// The codec's capabilities.
  [[nodiscard]] virtual const CodecCapabilities& capabilities() const = 0;

  [[nodiscard]] std::string name() const { return capabilities().name; }

  /// See CodecCapabilities::concurrent_sessions_safe(); the sweep scheduler
  /// runs codecs for which this is false serially.
  [[nodiscard]] bool concurrent_sessions_safe() const {
    return capabilities().concurrent_sessions_safe();
  }

  /// Opens a session; pass an arena to share scratch buffers, or null to
  /// let the session own one. \p pool threads the codec kernel (null =
  /// serial) in both sessions: every kernel writes byte-identical streams
  /// for any thread count, and modeled device timings never depend on it.
  [[nodiscard]] virtual std::unique_ptr<CodecSession> open_session(
      ScratchArena* arena = nullptr, ThreadPool* pool = nullptr) = 0;
};

/// Creates a compressor by name. Device codecs need a simulator; passing
/// null for them throws InvalidArgument, as does an unknown name (the
/// message lists the known codecs).
std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim = nullptr);

/// Codec names in table (= evaluation and presentation) order.
std::vector<std::string> available_compressors();

/// The capabilities of the codec called \p name: the same object every
/// Compressor of that codec returns. Throws InvalidArgument (listing the
/// known codecs) for unknown names.
const CodecCapabilities& codec_capabilities(const std::string& name);

}  // namespace cosmo::foresight
