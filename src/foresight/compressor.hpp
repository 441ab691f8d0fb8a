/// \file compressor.hpp
/// \brief Foresight's uniform compressor interface.
///
/// CBench evaluates every codec through this interface. The codec roster is
/// open: compressors self-register in the CodecRegistry (codec_registry.hpp)
/// with a factory plus a CodecCapabilities descriptor, and make_compressor /
/// available_compressors are thin views over that registry. The built-in
/// set covers the paper's evaluation codecs (gpu-sz, cuzfp, sz-cpu, zfp-cpu)
/// plus the FZ-GPU-style bitshuffle pipeline (fz-cpu, fz-gpu);
/// `foresight_cli codecs` prints the live roster.
///
/// The execution path is staged: a Compressor opens a CodecSession, and the
/// session exposes compress() and decompress() separately so sweeps can
/// reuse buffers across iterations, keep compressed streams around for
/// several decompressions, or skip decompression entirely. The fused
/// compress → decompress → compare run is CBench's (cbench.hpp).
///
/// Behind the interface sits one codec table (compressor.cpp): one row per
/// codec with its span names and host compress/decompress kernels. One
/// Compressor class serves every row and opens one of two sessions. Host
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
#include "foresight/codec_registry.hpp"
#include "foresight/shape_adapter.hpp"
#include "gpu/sim.hpp"
#include "json/json.hpp"

namespace cosmo::foresight {

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
/// CBenchResult); the old field names survive as read accessors.
struct CompressResult {
  std::vector<std::uint8_t> bytes;
  /// Value count of the original field, before any 1-D -> 3-D zero padding;
  /// decompress() truncates reconstructions back to this. 0 means unknown
  /// (no truncation).
  std::size_t original_values = 0;
  StageTelemetry telemetry;
  bool throughput_reportable = true;  ///< false for GPU-SZ and after a device OOM

  [[nodiscard]] double seconds() const { return telemetry.seconds; }
  [[nodiscard]] bool has_gpu_timing() const { return telemetry.has_gpu_timing; }
  [[nodiscard]] const TimingBreakdown& gpu_timing() const { return telemetry.gpu_timing; }
  [[nodiscard]] bool cpu_fallback() const { return telemetry.cpu_fallback; }
  [[nodiscard]] int device_attempts() const { return telemetry.device_attempts; }
};

/// Output of the decompression stage.
struct DecompressResult {
  std::vector<float> values;
  StageTelemetry telemetry;

  [[nodiscard]] double seconds() const { return telemetry.seconds; }
  [[nodiscard]] bool has_gpu_timing() const { return telemetry.has_gpu_timing; }
  [[nodiscard]] const TimingBreakdown& gpu_timing() const { return telemetry.gpu_timing; }
  [[nodiscard]] bool cpu_fallback() const { return telemetry.cpu_fallback; }
  [[nodiscard]] int device_attempts() const { return telemetry.device_attempts; }
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

/// Abstract compressor as seen by CBench: a registry entry that describes a
/// codec (through its CodecCapabilities) and opens execution sessions for
/// it. Name, modes and concurrency facts are all views over capabilities(),
/// so a codec's single source of truth is its registry descriptor.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// The registry descriptor for this codec.
  [[nodiscard]] virtual const CodecCapabilities& capabilities() const = 0;

  [[nodiscard]] std::string name() const { return capabilities().name; }
  [[nodiscard]] std::vector<std::string> supported_modes() const {
    return capabilities().modes;
  }

  /// True when sessions of this compressor may run concurrently with
  /// identical results. False for the simulated-GPU codecs (they share the
  /// simulator's jitter stream, so modeled timings are call-order
  /// dependent); the sweep scheduler runs those serially.
  [[nodiscard]] bool concurrent_sessions_safe() const {
    return capabilities().concurrent_sessions_safe;
  }

  /// Opens a session; pass an arena to share scratch buffers, or null to
  /// let the session own one. \p pool threads the codec kernel (null =
  /// serial) in both sessions: every kernel writes byte-identical streams
  /// for any thread count, and modeled device timings never depend on it.
  [[nodiscard]] virtual std::unique_ptr<CodecSession> open_session(
      ScratchArena* arena = nullptr, ThreadPool* pool = nullptr) = 0;
};

/// Creates a compressor by registered name (CodecRegistry::make). Device
/// codecs need a simulator; passing null for them throws InvalidArgument,
/// as does an unknown name (the message lists the registered codecs).
std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim = nullptr);

/// Registered codec names in registration (= evaluation) order.
std::vector<std::string> available_compressors();

}  // namespace cosmo::foresight
