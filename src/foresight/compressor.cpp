/// \file compressor.cpp
/// \brief The codec table and the two sessions every codec runs through.
///
/// Each codec is one row of a static table: its CodecCapabilities, its span
/// names, its host compress/decompress kernels and the two device-model
/// facts the row keeps to itself (the paper's 1-D -> 3-D reshape, and
/// whether the device model is keyed on the requested rate). One Compressor
/// class serves every row. Host rows (no kernel profile) open a HostSession,
/// which times the kernel on the host clock. Device rows open a
/// DeviceSession, which runs the same kernel once and models the device run
/// on the GpuSimulator at the row's kernel_rates() profile (the paper's
/// Fig. 7 method).
#include "foresight/compressor.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

#include "common/backoff.hpp"
#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "fz/fz.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::foresight {

bool CodecCapabilities::supports_mode(const std::string& mode) const {
  return std::find(modes.begin(), modes.end(), mode) != modes.end();
}

std::string CodecCapabilities::modes_label() const { return join(modes, ", "); }

void CodecCapabilities::require_mode(const std::string& mode) const {
  if (!supports_mode(mode)) {
    throw InvalidArgument(name + ": unsupported mode '" + mode +
                          "' (supported: " + modes_label() + ")");
  }
}

std::string CompressorConfig::label() const {
  return strprintf("%s=%g", mode.c_str(), value);
}

std::vector<CompressorConfig> parse_config_list(const json::Value& list) {
  std::vector<CompressorConfig> configs;
  for (const auto& c : list.as_array()) {
    require_format(c.is_object() && c.contains("mode") && c.at("mode").is_string() &&
                       c.contains("value") && c.at("value").is_number(),
                   "config: each entry needs a string mode and a numeric value");
    configs.push_back({c.at("mode").as_string(), c.at("value").as_number()});
  }
  return configs;
}

json::Value config_list_json(const std::vector<CompressorConfig>& configs) {
  json::Value list(json::Array{});
  for (const auto& config : configs) {
    json::Object& c = list.as_array().emplace_back(json::Object{}).as_object();
    c["mode"] = config.mode;
    c["value"] = config.value;
  }
  return list;
}

CompressResult CodecSession::compress(const Field& field, const CompressorConfig& config) {
  CompressResult out;
  compress(field, config, out);
  return out;
}

DecompressResult CodecSession::decompress(const CompressResult& compressed) {
  DecompressResult out;
  decompress(compressed, out);
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Host kernels: one compress/decompress pair per codec family
// ---------------------------------------------------------------------------

using CompressKernel = void (*)(std::span<const float> data, const Dims& dims,
                                const CompressorConfig& config,
                                std::vector<std::uint8_t>& out, ThreadPool* pool);
using DecompressKernel = void (*)(std::span<const std::uint8_t> bytes,
                                  std::vector<float>& out, ThreadPool* pool);

void sz_compress(std::span<const float> data, const Dims& dims,
                 const CompressorConfig& config, std::vector<std::uint8_t>& out,
                 ThreadPool* pool) {
  if (config.mode == "abs") {
    sz::Params params;
    params.abs_error_bound = config.value;
    sz::compress_into(data, dims, params, out, nullptr, pool);
  } else {
    sz::PwRelParams params;
    params.pw_rel_bound = config.value;
    sz::compress_pwrel_into(data, dims, params, out, nullptr, pool);
  }
}

/// The GPU-SZ prototype is 3-D only, like the OpenMP original; its row
/// reshapes 1-D fields first (paper Sec. IV-B4).
void gpu_sz_compress(std::span<const float> data, const Dims& dims,
                     const CompressorConfig& config, std::vector<std::uint8_t>& out,
                     ThreadPool* pool) {
  require(dims.rank() == 3, "gpu-sz: GPU-SZ supports only 3-D and reshaped 1-D data");
  sz_compress(data, dims, config, out, pool);
}

void sz_decompress(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                   ThreadPool* pool) {
  if (sz::is_pwrel_stream(bytes)) {
    sz::decompress_pwrel_into(bytes, out, nullptr, pool);
  } else {
    sz::decompress_into(bytes, out, nullptr, pool);
  }
}

void zfp_compress(std::span<const float> data, const Dims& dims,
                  const CompressorConfig& config, std::vector<std::uint8_t>& out,
                  ThreadPool* pool) {
  zfp::Params params;
  if (config.mode == "rate") {
    params.mode = zfp::Mode::kFixedRate;
    params.rate = config.value;
  } else if (config.mode == "precision") {
    params.mode = zfp::Mode::kFixedPrecision;
    params.precision = static_cast<unsigned>(config.value);
  } else {
    params.mode = zfp::Mode::kFixedAccuracy;
    params.tolerance = config.value;
  }
  zfp::compress_into(data, dims, params, out, nullptr, pool);
}

void zfp_decompress(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                    ThreadPool* pool) {
  zfp::decompress_into(bytes, out, nullptr, pool);
}

void fz_compress(std::span<const float> data, const Dims& dims,
                 const CompressorConfig& config, std::vector<std::uint8_t>& out,
                 ThreadPool* pool) {
  fz::Params params;
  params.abs_error_bound = config.value;
  fz::compress_into(data, dims, params, out, nullptr, pool);
}

void fz_decompress(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                   ThreadPool* pool) {
  fz::decompress_into(bytes, out, nullptr, pool);
}

// ---------------------------------------------------------------------------
// The codec table
// ---------------------------------------------------------------------------

/// One codec. Whether it runs on the host or the simulated device is its
/// CodecCapabilities::kernel_profile (empty = host).
struct CodecRow {
  CodecCapabilities caps;
  const char* compress_span;  ///< string literals: the tracer keeps the pointer
  const char* decompress_span;
  CompressKernel compress;
  DecompressKernel decompress;
  /// The kernel sees 1-D fields as (ceil(n/64), 8, 8): the paper's dimension
  /// conversion for GPU-SZ and cuZFP on HACC (ShapeAdapter).
  bool reshape_1d = false;
  /// The device model's compress bitrate is the requested rate (cuZFP's
  /// fixed rate), not the achieved stream bitrate.
  bool model_requested_rate = false;
};

/// The ABS lattice: log-spaced fractions of the field's value range,
/// matching the paper's per-field bound scaling. Shared by the SZ and FZ
/// families, so their rate-distortion figures are comparable.
SweepAxis abs_axis() {
  return {.mode = "abs", .kind = SweepAxis::Kind::kRangeFractions, .lo = 2e-6, .hi = 2e-3,
          .count = 4};
}

SweepAxis pwrel_axis() {
  return {.mode = "pw_rel", .kind = SweepAxis::Kind::kLogValues, .lo = 1e-3, .hi = 1e-1,
          .count = 4};
}

SweepAxis rate_axis() {
  return {.mode = "rate", .kind = SweepAxis::Kind::kFixedValues,
          .values = {1.0, 2.0, 4.0, 8.0}};
}

/// Every codec, in presentation order (available_compressors(), the CLI
/// table, bench iteration). Built once, on first use.
std::span<const CodecRow> codec_table() {
  static const CodecRow table[] = {
      {.caps = {.name = "gpu-sz",
                .summary = "GPU-SZ prototype (simulated device; 1-D fields reshaped to 3-D)",
                .modes = {"abs", "pw_rel"},
                // The paper excludes GPU-SZ throughput: the OpenMP
                // prototype's memory layout is unoptimized.
                .throughput_reportable = false,
                .abs_rate_estimable = true,  // abs path is the SZ pipeline
                .kernel_profile = "sz",
                .default_sweep = {abs_axis(), pwrel_axis()}},
       .compress_span = "gpu-sz.compress",
       .decompress_span = "gpu-sz.decompress",
       .compress = gpu_sz_compress,
       .decompress = sz_decompress,
       .reshape_1d = true},
      {.caps = {.name = "cuzfp",
                .summary = "cuZFP (simulated device; fixed-rate transform coding)",
                .modes = {"rate"},
                .plot_dashed = true,  // the paper draws fixed-rate cuZFP series dashed
                .kernel_profile = "zfp",
                .default_sweep = {rate_axis()}},
       .compress_span = "cuzfp.compress",
       .decompress_span = "cuzfp.decompress",
       .compress = zfp_compress,
       .decompress = zfp_decompress,
       .reshape_1d = true,
       .model_requested_rate = true},
      {.caps = {.name = "sz-cpu",
                .summary = "CPU SZ (Lorenzo + quantize + Huffman/LZSS; measured wall time)",
                .modes = {"abs", "pw_rel"},
                .abs_rate_estimable = true,
                .default_sweep = {abs_axis(), pwrel_axis()}},
       .compress_span = "sz-cpu.compress",
       .decompress_span = "sz-cpu.decompress",
       .compress = sz_compress,
       .decompress = sz_decompress},
      {.caps = {.name = "zfp-cpu",
                .summary = "CPU ZFP (fixed-rate / fixed-accuracy / fixed-precision)",
                .modes = {"rate", "accuracy", "precision"},
                .plot_dashed = true,
                .default_sweep = {rate_axis(),
                                  {.mode = "accuracy",
                                   .kind = SweepAxis::Kind::kLogValues,
                                   .lo = 1e-2,
                                   .hi = 1.0,
                                   .count = 4},
                                  {.mode = "precision",
                                   .kind = SweepAxis::Kind::kFixedValues,
                                   .values = {8.0, 12.0, 16.0, 20.0}}}},
       .compress_span = "zfp-cpu.compress",
       .decompress_span = "zfp-cpu.decompress",
       .compress = zfp_compress,
       .decompress = zfp_decompress},
      {.caps = {.name = "fz-cpu",
                .summary =
                    "FZ bitshuffle pipeline on the host (quantize + bitshuffle + zero-run)",
                .modes = {"abs"},
                .default_sweep = {abs_axis()}},
       .compress_span = "fz-cpu.compress",
       .decompress_span = "fz-cpu.decompress",
       .compress = fz_compress,
       .decompress = fz_decompress},
      {.caps = {.name = "fz-gpu",
                .summary =
                    "FZ-GPU (simulated device; fastest kernel profile, arXiv:2304.12557)",
                .modes = {"abs"},
                .kernel_profile = "fz",
                .default_sweep = {abs_axis()}},
       .compress_span = "fz-gpu.compress",
       .decompress_span = "fz-gpu.decompress",
       .compress = fz_compress,
       .decompress = fz_decompress},
  };
  return table;
}

/// The row called \p name. An unknown name throws InvalidArgument from
/// \p caller, listing the table.
const CodecRow& find_row(const std::string& name, const char* caller) {
  for (const CodecRow& row : codec_table()) {
    if (row.caps.name == name) return row;
  }
  throw InvalidArgument(std::string(caller) + ": unknown compressor '" + name +
                        "' (registered: " + join(available_compressors(), ", ") + ")");
}

// ---------------------------------------------------------------------------
// The two sessions
// ---------------------------------------------------------------------------

/// Mode check, identity columns and \p row's compress kernel timed on the
/// host clock (seconds land in out.telemetry). Returns the value count the
/// kernel compressed, padding included.
std::size_t run_compress(const CodecRow& row, const Field& field,
                         const CompressorConfig& config, CompressResult& out,
                         ScratchArena& arena, ThreadPool* pool) {
  row.caps.require_mode(config.mode);
  out.throughput_reportable = row.caps.throughput_reportable;
  out.original_values = field.data.size();
  const auto run = [&](std::span<const float> values, const Dims& dims) {
    const Timer timer;
    row.compress(values, dims, config, out.bytes, pool);
    out.telemetry.seconds = timer.seconds();
    return values.size();
  };
  if (!row.reshape_1d) return run(field.data, field.dims);
  const ShapeAdapter shaped(field, arena);
  return run(shaped.values(), shaped.dims());
}

/// \p row's decompress kernel timed on the host clock. The reconstruction
/// keeps any reshape padding; drop_padding() removes it.
void run_decompress(const CodecRow& row, const CompressResult& compressed,
                    DecompressResult& out, ThreadPool* pool) {
  const Timer timer;
  row.decompress(compressed.bytes, out.values, pool);
  out.telemetry.seconds = timer.seconds();
}

/// Truncates a reconstruction back to the pre-padding length recorded at
/// compression time (no-op when the length is unknown or already right).
void drop_padding(const CompressResult& compressed, std::vector<float>& values) {
  if (compressed.original_values != 0) values.resize(compressed.original_values);
}

class HostSession final : public CodecSession {
 public:
  HostSession(const CodecRow& row, ScratchArena* arena, ThreadPool* pool)
      : CodecSession(arena, pool), row_(row) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN(row_.compress_span);
    out.telemetry.reset_cpu();
    run_compress(row_, field, config, out, arena(), pool());
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN(row_.decompress_span);
    out.telemetry.reset_cpu();
    run_decompress(row_, compressed, out, pool());
    drop_padding(compressed, out.values);
  }

 private:
  const CodecRow& row_;
};

/// Transient device faults are retried up to this many attempts in all.
constexpr int kDeviceAttempts = 3;

/// The wait between attempts: the shared seeded-jitter schedule
/// (common/backoff.hpp) at its defaults, 0.5 ms doubling to a 50 ms cap.
constexpr backoff::Policy kDeviceBackoff{};

double stream_bitrate(std::size_t compressed_bytes, std::size_t values) {
  return static_cast<double>(compressed_bytes) * 8.0 / static_cast<double>(values);
}

/// Runs the device timing model and records it in \p stage. A
/// TransientError is retried with backoff; only the model is retried, since
/// the kernel's output is already exact. A retry sequence claims a
/// process-wide salt on its first fault, so concurrent sequences spread out
/// instead of retrying in step. A device OOM keeps the host kernel's output
/// and its measured wall time: \p stage is marked as a CPU fallback and
/// false is returned.
template <typename Model>
bool model_device(StageTelemetry& stage, Model&& model) {
  std::uint64_t salt = 0;
  bool salted = false;
  try {
    for (int attempts = 1;; ++attempts) {
      try {
        stage.set_device(model(), attempts);
        return true;
      } catch (const TransientError&) {
        telemetry::MetricsRegistry::instance().counter("gpu.transient_retries").add();
        if (attempts >= kDeviceAttempts) throw;
        if (!salted) {
          salt = backoff::next_sequence_salt();
          salted = true;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoff::delay_seconds(kDeviceBackoff, attempts, salt)));
      }
    }
  } catch (const OutOfMemoryError&) {
    stage.mark_cpu_fallback();
    telemetry::MetricsRegistry::instance().counter("codec.cpu_fallbacks").add();
    return false;
  }
}

class DeviceSession final : public CodecSession {
 public:
  DeviceSession(const CodecRow& row, gpu::GpuSimulator& sim, ScratchArena* arena,
                ThreadPool* pool)
      : CodecSession(arena, pool), row_(row), sim_(sim) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN(row_.compress_span);
    out.telemetry.reset_gpu();
    TRACE_SPAN("gpu.device.compress");
    const std::size_t values = run_compress(row_, field, config, out, arena(), pool());
    const double bitrate = row_.model_requested_rate
                               ? config.value
                               : stream_bitrate(out.bytes.size(), values);
    const double gbps = sim_.kernel_rates(row_.caps.kernel_profile, bitrate).compress_gbps;
    if (!model_device(out.telemetry, [&] {
          return sim_.model_compression(values * sizeof(float), out.bytes.size(), gbps);
        })) {
      out.throughput_reportable = false;  // the time no longer describes the device
    }
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN(row_.decompress_span);
    out.telemetry.reset_gpu();
    TRACE_SPAN("gpu.device.decompress");
    run_decompress(row_, compressed, out, pool());
    // Modeled on the decoded extent, reshape padding included.
    const std::size_t values = out.values.size();
    const double gbps =
        sim_.kernel_rates(row_.caps.kernel_profile,
                          stream_bitrate(compressed.bytes.size(), values))
            .decompress_gbps;
    model_device(out.telemetry, [&] {
      return sim_.model_decompression(values * sizeof(float), compressed.bytes.size(), gbps);
    });
    drop_padding(compressed, out.values);
  }

 private:
  const CodecRow& row_;
  gpu::GpuSimulator& sim_;
};

class TableCompressor final : public Compressor {
 public:
  TableCompressor(const CodecRow& row, gpu::GpuSimulator* sim) : row_(row), sim_(sim) {}

  [[nodiscard]] const CodecCapabilities& capabilities() const override { return row_.caps; }

  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                          ThreadPool* pool) override {
    TRACE_SPAN("session.open");
    if (!row_.caps.needs_device()) return std::make_unique<HostSession>(row_, arena, pool);
    return std::make_unique<DeviceSession>(row_, *sim_, arena, pool);
  }

 private:
  const CodecRow& row_;
  gpu::GpuSimulator* sim_;
};

}  // namespace

std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim) {
  const CodecRow& row = find_row(name, "make_compressor");
  if (row.caps.needs_device() && sim == nullptr) {
    throw InvalidArgument("make_compressor: '" + name + "' needs a GPU simulator");
  }
  return std::make_unique<TableCompressor>(row, sim);
}

std::vector<std::string> available_compressors() {
  std::vector<std::string> names;
  for (const CodecRow& row : codec_table()) names.push_back(row.caps.name);
  return names;
}

const CodecCapabilities& codec_capabilities(const std::string& name) {
  return find_row(name, "codec table").caps;
}

}  // namespace cosmo::foresight
