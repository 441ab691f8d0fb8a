#include "foresight/compressor.hpp"

#include <algorithm>

#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::foresight {

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

/// Rejects configs whose mode the codec does not register; the error lists
/// the supported modes (CodecCapabilities::require_mode).
void check_mode(const std::string& got, const char* codec) {
  CodecRegistry::instance().capabilities(codec).require_mode(got);
}

/// Truncates a reconstruction back to the pre-padding length recorded at
/// compression time (no-op when the length is unknown or already right).
void drop_padding(const CompressResult& compressed, std::vector<float>& values) {
  if (compressed.original_values != 0) values.resize(compressed.original_values);
}

/// Counts host fallbacks across all sessions; surfaced via --metrics-out.
void count_cpu_fallback() {
  telemetry::MetricsRegistry::instance().counter("codec.cpu_fallbacks").add();
}

class GpuSzSession final : public CodecSession {
 public:
  GpuSzSession(gpu::GpuSimulator& sim, ScratchArena* arena)
      : CodecSession(arena), device_(sim) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN("gpu-sz.compress");
    check_mode(config.mode, "gpu-sz");
    out.telemetry.reset_gpu();
    out.throughput_reportable = gpu::GpuSzDevice::throughput_supported();
    out.original_values = field.data.size();

    ShapeAdapter shaped(field, arena());
    dev_c_.bytes.swap(out.bytes);  // bring the caller's capacity in for reuse
    try {
      if (config.mode == "abs") {
        device_.compress_abs_into(shaped.values(), shaped.dims(), config.value, dev_c_);
      } else {
        device_.compress_pwrel_into(shaped.values(), shaped.dims(), config.value, dev_c_);
      }
    } catch (const OutOfMemoryError&) {
      // The job does not fit on the device; run the matching host codec
      // (bit-identical stream) with measured wall time instead. Throughput
      // stays non-reportable — the time no longer describes the device.
      out.bytes.swap(dev_c_.bytes);
      compress_on_host(shaped, config, out);
      return;
    }
    out.bytes.swap(dev_c_.bytes);
    out.telemetry.set_device(dev_c_.timing, dev_c_.attempts);
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN("gpu-sz.decompress");
    out.telemetry.reset_gpu();
    dev_d_.values.swap(out.values);
    try {
      device_.decompress_into(compressed.bytes, dev_d_);
    } catch (const OutOfMemoryError&) {
      out.values.swap(dev_d_.values);
      decompress_on_host(compressed, out);
      return;
    }
    out.values.swap(dev_d_.values);
    drop_padding(compressed, out.values);
    out.telemetry.set_device(dev_d_.timing, dev_d_.attempts);
  }

 private:
  void compress_on_host(const ShapeAdapter& shaped, const CompressorConfig& config,
                        CompressResult& out) {
    TRACE_SPAN("gpu-sz.compress.host_fallback");
    out.telemetry.mark_cpu_fallback();
    out.throughput_reportable = false;
    count_cpu_fallback();
    Timer timer;
    if (config.mode == "abs") {
      sz::Params params;
      params.abs_error_bound = config.value;
      sz::compress_into(shaped.values(), shaped.dims(), params, out.bytes);
    } else {
      sz::PwRelParams params;
      params.pw_rel_bound = config.value;
      sz::compress_pwrel_into(shaped.values(), shaped.dims(), params, out.bytes);
    }
    out.telemetry.seconds = timer.seconds();
  }

  void decompress_on_host(const CompressResult& compressed, DecompressResult& out) {
    TRACE_SPAN("gpu-sz.decompress.host_fallback");
    out.telemetry.mark_cpu_fallback();
    count_cpu_fallback();
    Timer timer;
    if (sz::is_pwrel_stream(compressed.bytes)) {
      sz::decompress_pwrel_into(compressed.bytes, out.values);
    } else {
      sz::decompress_into(compressed.bytes, out.values);
    }
    drop_padding(compressed, out.values);
    out.telemetry.seconds = timer.seconds();
  }

  gpu::GpuSzDevice device_;
  gpu::DeviceCompressResult dev_c_;
  gpu::DeviceDecompressResult dev_d_;
};

class GpuSzCompressor final : public Compressor {
 public:
  explicit GpuSzCompressor(gpu::GpuSimulator& sim) : sim_(sim) {}

  [[nodiscard]] const CodecCapabilities& capabilities() const override {
    return CodecRegistry::instance().capabilities("gpu-sz");
  }
  /// The pool is ignored: modeled GPU timings draw from the simulator's
  /// jitter stream and must stay call-order deterministic.
  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                          ThreadPool* /*pool*/) override {
    TRACE_SPAN("session.open");
    return std::make_unique<GpuSzSession>(sim_, arena);
  }

 private:
  gpu::GpuSimulator& sim_;
};

class CuZfpSession final : public CodecSession {
 public:
  CuZfpSession(gpu::GpuSimulator& sim, ScratchArena* arena)
      : CodecSession(arena), device_(sim) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN("cuzfp.compress");
    check_mode(config.mode, "cuzfp");
    out.telemetry.reset_gpu();
    out.throughput_reportable = true;
    out.original_values = field.data.size();

    // "the compression quality on the 1-D data is not as good as that on
    // the converted 3-D data" — convert like the paper does.
    ShapeAdapter shaped(field, arena());
    dev_c_.bytes.swap(out.bytes);
    try {
      device_.compress_into(shaped.values(), shaped.dims(), config.value, dev_c_);
    } catch (const OutOfMemoryError&) {
      // Device-OOM: fixed-rate ZFP on the host emits the identical stream;
      // record the fallback and stop reporting device throughput.
      TRACE_SPAN("cuzfp.compress.host_fallback");
      out.bytes.swap(dev_c_.bytes);
      out.telemetry.mark_cpu_fallback();
      out.throughput_reportable = false;
      count_cpu_fallback();
      zfp::Params params;
      params.mode = zfp::Mode::kFixedRate;
      params.rate = config.value;
      Timer timer;
      zfp::compress_into(shaped.values(), shaped.dims(), params, out.bytes);
      out.telemetry.seconds = timer.seconds();
      return;
    }
    out.bytes.swap(dev_c_.bytes);
    out.telemetry.set_device(dev_c_.timing, dev_c_.attempts);
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN("cuzfp.decompress");
    out.telemetry.reset_gpu();
    dev_d_.values.swap(out.values);
    try {
      device_.decompress_into(compressed.bytes, dev_d_);
    } catch (const OutOfMemoryError&) {
      TRACE_SPAN("cuzfp.decompress.host_fallback");
      out.values.swap(dev_d_.values);
      out.telemetry.mark_cpu_fallback();
      count_cpu_fallback();
      Timer timer;
      zfp::decompress_into(compressed.bytes, out.values);
      drop_padding(compressed, out.values);
      out.telemetry.seconds = timer.seconds();
      return;
    }
    out.values.swap(dev_d_.values);
    drop_padding(compressed, out.values);
    out.telemetry.set_device(dev_d_.timing, dev_d_.attempts);
  }

 private:
  gpu::CuZfpDevice device_;
  gpu::DeviceCompressResult dev_c_;
  gpu::DeviceDecompressResult dev_d_;
};

class CuZfpCompressor final : public Compressor {
 public:
  explicit CuZfpCompressor(gpu::GpuSimulator& sim) : sim_(sim) {}

  [[nodiscard]] const CodecCapabilities& capabilities() const override {
    return CodecRegistry::instance().capabilities("cuzfp");
  }
  /// The pool is ignored: modeled GPU timings draw from the simulator's
  /// jitter stream and must stay call-order deterministic.
  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                          ThreadPool* /*pool*/) override {
    TRACE_SPAN("session.open");
    return std::make_unique<CuZfpSession>(sim_, arena);
  }

 private:
  gpu::GpuSimulator& sim_;
};

class SzCpuSession final : public CodecSession {
 public:
  SzCpuSession(ScratchArena* arena, ThreadPool* pool) : CodecSession(arena, pool) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN("sz-cpu.compress");
    check_mode(config.mode, "sz-cpu");
    out.telemetry.reset_cpu();
    out.throughput_reportable = true;
    out.original_values = field.data.size();
    Timer timer;
    if (config.mode == "abs") {
      sz::Params params;
      params.abs_error_bound = config.value;
      sz::compress_into(field.data, field.dims, params, out.bytes, nullptr, pool());
    } else {
      sz::PwRelParams params;
      params.pw_rel_bound = config.value;
      sz::compress_pwrel_into(field.data, field.dims, params, out.bytes, nullptr, pool());
    }
    out.telemetry.seconds = timer.seconds();
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN("sz-cpu.decompress");
    out.telemetry.reset_cpu();
    Timer timer;
    if (sz::is_pwrel_stream(compressed.bytes)) {
      sz::decompress_pwrel_into(compressed.bytes, out.values, nullptr, pool());
    } else {
      sz::decompress_into(compressed.bytes, out.values, nullptr, pool());
    }
    drop_padding(compressed, out.values);
    out.telemetry.seconds = timer.seconds();
  }
};

class SzCpuCompressor final : public Compressor {
 public:
  [[nodiscard]] const CodecCapabilities& capabilities() const override {
    return CodecRegistry::instance().capabilities("sz-cpu");
  }
  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                          ThreadPool* pool) override {
    TRACE_SPAN("session.open");
    return std::make_unique<SzCpuSession>(arena, pool);
  }
};

zfp::Params zfp_params_for(const CompressorConfig& config) {
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
  return params;
}

class ZfpCpuSession final : public CodecSession {
 public:
  ZfpCpuSession(ScratchArena* arena, ThreadPool* pool) : CodecSession(arena, pool) {}

  void compress(const Field& field, const CompressorConfig& config,
                CompressResult& out) override {
    TRACE_SPAN("zfp-cpu.compress");
    check_mode(config.mode, "zfp-cpu");
    out.telemetry.reset_cpu();
    out.throughput_reportable = true;
    out.original_values = field.data.size();
    const zfp::Params params = zfp_params_for(config);
    Timer timer;
    zfp::compress_into(field.data, field.dims, params, out.bytes, nullptr, pool());
    out.telemetry.seconds = timer.seconds();
  }

  void decompress(const CompressResult& compressed, DecompressResult& out) override {
    TRACE_SPAN("zfp-cpu.decompress");
    out.telemetry.reset_cpu();
    Timer timer;
    zfp::decompress_into(compressed.bytes, out.values, nullptr, pool());
    drop_padding(compressed, out.values);
    out.telemetry.seconds = timer.seconds();
  }
};

class ZfpCpuCompressor final : public Compressor {
 public:
  [[nodiscard]] const CodecCapabilities& capabilities() const override {
    return CodecRegistry::instance().capabilities("zfp-cpu");
  }
  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                          ThreadPool* pool) override {
    TRACE_SPAN("session.open");
    return std::make_unique<ZfpCpuSession>(arena, pool);
  }
};

/// The shared ABS-bound lattice: log-spaced fractions of the field's value
/// range, matching the paper's per-field bound scaling.
std::vector<SweepAxis> sz_style_sweep() {
  SweepAxis abs;
  abs.mode = "abs";
  abs.kind = SweepAxis::Kind::kRangeFractions;
  abs.lo = 2e-6;
  abs.hi = 2e-3;
  abs.count = 4;
  SweepAxis pwrel;
  pwrel.mode = "pw_rel";
  pwrel.kind = SweepAxis::Kind::kLogValues;
  pwrel.lo = 1e-3;
  pwrel.hi = 1e-1;
  pwrel.count = 4;
  return {abs, pwrel};
}

SweepAxis rate_axis() {
  SweepAxis rate;
  rate.mode = "rate";
  rate.kind = SweepAxis::Kind::kFixedValues;
  rate.values = {1.0, 2.0, 4.0, 8.0};
  return rate;
}

SweepAxis accuracy_axis() {
  SweepAxis acc;
  acc.mode = "accuracy";
  acc.kind = SweepAxis::Kind::kLogValues;
  acc.lo = 1e-2;
  acc.hi = 1.0;
  acc.count = 4;
  return acc;
}

}  // namespace

namespace detail {

void register_paper_codecs(CodecRegistry& registry) {
  {
    CodecCapabilities caps;
    caps.name = "gpu-sz";
    caps.summary = "GPU-SZ prototype (simulated device; 1-D fields reshaped to 3-D)";
    caps.modes = {"abs", "pw_rel"};
    caps.needs_device = true;
    caps.concurrent_sessions_safe = false;  // shares the simulator jitter stream
    caps.throughput_reportable = gpu::GpuSzDevice::throughput_supported();
    caps.abs_rate_estimable = true;  // abs path is the SZ pipeline
    caps.kernel_profile = "sz";
    caps.default_sweep = sz_style_sweep();
    registry.add(std::move(caps), [](gpu::GpuSimulator* sim) -> std::unique_ptr<Compressor> {
      return std::make_unique<GpuSzCompressor>(*sim);
    });
  }
  {
    CodecCapabilities caps;
    caps.name = "cuzfp";
    caps.summary = "cuZFP (simulated device; fixed-rate transform coding)";
    caps.modes = {"rate"};
    caps.needs_device = true;
    caps.concurrent_sessions_safe = false;
    caps.plot_dashed = true;  // the paper draws fixed-rate cuZFP series dashed
    caps.kernel_profile = "zfp";
    caps.default_sweep = {rate_axis()};
    registry.add(std::move(caps), [](gpu::GpuSimulator* sim) -> std::unique_ptr<Compressor> {
      return std::make_unique<CuZfpCompressor>(*sim);
    });
  }
  {
    CodecCapabilities caps;
    caps.name = "sz-cpu";
    caps.summary = "CPU SZ (Lorenzo + quantize + Huffman/LZSS; measured wall time)";
    caps.modes = {"abs", "pw_rel"};
    caps.abs_rate_estimable = true;
    caps.default_sweep = sz_style_sweep();
    registry.add(std::move(caps), [](gpu::GpuSimulator*) -> std::unique_ptr<Compressor> {
      return std::make_unique<SzCpuCompressor>();
    });
  }
  {
    CodecCapabilities caps;
    caps.name = "zfp-cpu";
    caps.summary = "CPU ZFP (fixed-rate / fixed-accuracy / fixed-precision)";
    caps.modes = {"rate", "accuracy", "precision"};
    caps.plot_dashed = true;
    SweepAxis precision;
    precision.mode = "precision";
    precision.kind = SweepAxis::Kind::kFixedValues;
    precision.values = {8.0, 12.0, 16.0, 20.0};
    caps.default_sweep = {rate_axis(), accuracy_axis(), precision};
    registry.add(std::move(caps), [](gpu::GpuSimulator*) -> std::unique_ptr<Compressor> {
      return std::make_unique<ZfpCpuCompressor>();
    });
  }
}

}  // namespace detail

std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            gpu::GpuSimulator* sim) {
  return CodecRegistry::instance().make(name, sim);
}

std::vector<std::string> available_compressors() {
  return CodecRegistry::instance().names();
}

}  // namespace cosmo::foresight
