/// \file test_codec_registry.cpp
/// \brief Codec-table conformance suite: every codec — present and future —
/// is exercised through the same contract, driven purely by its
/// CodecCapabilities: round-trip per supported mode, session reuse,
/// corruption containment, on_error=continue, capability consistency, the
/// pinned roster, and the error messages the lookups promise. Plus the
/// FZ-specific facts (device timing, OOM fallback byte-identity, trace
/// spans, metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/telemetry.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"
#include "foresight/compressor.hpp"
#include "foresight/sweep.hpp"
#include "io/crc32.hpp"
#include "random/rng.hpp"

namespace cosmo::foresight {
namespace {

using telemetry::Tracer;

/// Smooth strictly-positive field: every mode — including pw_rel — is
/// well-defined on it.
Field conformance_field() {
  Rng rng(77);
  Field f("field", Dims::d3(16, 16, 16));
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    f.data[i] = static_cast<float>(
        100.0 + 50.0 * std::sin(0.01 * static_cast<double>(i)) + rng.normal());
  }
  return f;
}

/// A mode-appropriate config for conformance runs.
CompressorConfig config_for_mode(const std::string& mode) {
  if (mode == "abs") return {"abs", 0.1};
  if (mode == "pw_rel") return {"pw_rel", 0.05};
  if (mode == "rate") return {"rate", 8.0};
  if (mode == "accuracy") return {"accuracy", 0.1};
  if (mode == "precision") return {"precision", 16.0};
  ADD_FAILURE() << "no conformance config for mode '" << mode << "'";
  return {mode, 1.0};
}

/// The registered mode universe; codecs must draw modes from it so
/// config_for_mode stays exhaustive.
const std::vector<std::string> kAllModes = {"abs", "pw_rel", "rate", "accuracy",
                                            "precision"};

struct TracerOffGuard {
  TracerOffGuard() { Tracer::disable(); }
  ~TracerOffGuard() {
    Tracer::disable();
    Tracer::clear();
  }
};

// ---------------------------------------------------------------------------
// Conformance: every codec x every supported mode
// ---------------------------------------------------------------------------

TEST(RegistryConformance, EveryCodecRoundTripsEverySupportedMode) {
  // Each run goes once through a serial session and once through a 4-thread
  // session pool: the bound must hold on both, and a concurrent-safe codec
  // must write the same stream on both.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  for (const auto& name : available_compressors()) {
    const auto& caps = codec_capabilities(name);
    const auto codec = make_compressor(name, &sim);
    EXPECT_EQ(&codec->capabilities(), &caps) << name;
    for (const auto& mode : caps.modes) {
      ASSERT_NE(std::find(kAllModes.begin(), kAllModes.end(), mode), kAllModes.end())
          << name << " registers unknown mode " << mode;
      const CompressorConfig config = config_for_mode(mode);
      std::uint32_t serial_crc = 0;
      for (const std::size_t threads : {1u, 4u}) {
        const CBenchResult out =
            CBench({.session_threads = threads}).run_one(field, *codec, config);
        ASSERT_EQ(out.reconstructed.size(), field.data.size())
            << name << " " << mode << " threads " << threads;
        ASSERT_GT(out.compressed_bytes, 0u) << name << " " << mode << " threads " << threads;
        for (std::size_t i = 0; i < field.data.size(); ++i) {
          const double err =
              std::fabs(static_cast<double>(out.reconstructed[i]) - field.data[i]);
          ASSERT_TRUE(std::isfinite(out.reconstructed[i]))
              << name << " " << mode << " threads " << threads << " at " << i;
          if (mode == "abs" || mode == "accuracy") {
            ASSERT_LE(err, config.value * (1 + 1e-9))
                << name << " " << mode << " threads " << threads << " at " << i;
          } else if (mode == "pw_rel") {
            ASSERT_LE(err, config.value * std::fabs(field.data[i]) * (1 + 1e-6))
                << name << " threads " << threads << " at " << i;
          }
        }
        if (threads == 1) {
          serial_crc = out.stream_crc32;
        } else if (caps.concurrent_sessions_safe()) {
          EXPECT_EQ(out.stream_crc32, serial_crc)
              << name << " " << mode << ": stream depends on the thread count";
        }
      }
    }
  }
}

TEST(RegistryConformance, SessionReuseProducesIdenticalStreams) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  for (const auto& name : available_compressors()) {
    const auto& caps = codec_capabilities(name);
    const auto codec = make_compressor(name, &sim);
    const CompressorConfig config = config_for_mode(caps.modes.front());

    const auto session = codec->open_session();
    const CompressResult first = session->compress(field, config);
    const CompressResult again = session->compress(field, config);
    EXPECT_EQ(first.bytes, again.bytes) << name << ": session reuse changed the stream";

    const CompressResult fresh = codec->open_session()->compress(field, config);
    EXPECT_EQ(first.bytes, fresh.bytes) << name << ": fresh session changed the stream";

    const DecompressResult d1 = session->decompress(first);
    const DecompressResult d2 = session->decompress(again);
    EXPECT_EQ(d1.values, d2.values) << name;
  }
}

TEST(RegistryConformance, CorruptionMatrixIsContained) {
  // Every codec's decode surface must either decode or throw cosmo::Error
  // on corrupted streams — nothing may crash or escape with another type.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  for (const auto& name : available_compressors()) {
    const auto& caps = codec_capabilities(name);
    const auto codec = make_compressor(name, &sim);
    const auto session = codec->open_session();
    const CompressResult clean =
        session->compress(field, config_for_mode(caps.modes.front()));

    struct Case {
      fault::Corruption kind;
      std::size_t offset_num, offset_den;  // offset = size * num / den
      std::uint64_t arg;
    };
    const Case cases[] = {
        {fault::Corruption::kBitFlip, 0, 4, 3},      // header region
        {fault::Corruption::kBitFlip, 1, 2, 5},      // payload
        {fault::Corruption::kTruncate, 1, 3, 0},     // deep truncation
        {fault::Corruption::kTruncate, 9, 10, 0},    // tail truncation
        {fault::Corruption::kZeroRun, 1, 4, 64},     // zeroed run
    };
    for (const auto& c : cases) {
      CompressResult corrupted = clean;
      const std::size_t offset =
          std::min(corrupted.bytes.size() - 1,
                   corrupted.bytes.size() * c.offset_num / c.offset_den);
      fault::FaultPlan::apply(corrupted.bytes, c.kind, offset, c.arg);
      DecompressResult out;
      try {
        session->decompress(corrupted, out);  // decoding garbage is fine
      } catch (const Error&) {
        // the contained outcome for malformed input
      }
    }
  }
}

TEST(RegistryConformance, SweepContinuesPastFailingConfigs) {
  // Under on_error=continue, a config a codec does not support produces a
  // "failed" row and the sweep keeps going — for every codec.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  NyxConfig nyx_config;
  nyx_config.dim = 8;
  const io::Container nyx = generate_nyx(nyx_config);
  CBench bench({.keep_reconstructed = false,
                .dataset_name = "conformance",
                .on_error = OnError::kContinue});
  for (const auto& name : available_compressors()) {
    const auto& caps = codec_capabilities(name);
    const auto codec = make_compressor(name, &sim);
    // A mode this codec does not register (every codec lacks at least one).
    std::string bad_mode;
    for (const auto& mode : kAllModes) {
      if (!caps.supports_mode(mode)) {
        bad_mode = mode;
        break;
      }
    }
    ASSERT_FALSE(bad_mode.empty()) << name << " claims every mode";
    const std::vector<CompressorConfig> configs = {config_for_mode(caps.modes.front()),
                                                   config_for_mode(bad_mode)};
    const auto results = bench.sweep(nyx, *codec, configs,
                                     [](const std::string& f) { return f == "temperature"; });
    ASSERT_EQ(results.size(), 2u) << name;
    EXPECT_EQ(results[0].status, "ok") << name;
    EXPECT_EQ(results[1].status, "failed") << name;
    EXPECT_NE(results[1].error.find(bad_mode), std::string::npos)
        << name << ": failed row should name the rejected mode";
  }
}

// ---------------------------------------------------------------------------
// Error messages and capability consistency
// ---------------------------------------------------------------------------

TEST(RegistryConformance, UnknownCodecErrorListsRegisteredNames) {
  try {
    (void)make_compressor("no-such-codec");
    FAIL() << "unknown codec did not throw";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    for (const auto& name : available_compressors()) {
      EXPECT_NE(message.find(name), std::string::npos)
          << "error message should list '" << name << "': " << message;
    }
  }
}

TEST(RegistryConformance, ModeMismatchErrorListsSupportedModes) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  try {
    (void)CBench().run_one(field, *make_compressor("cuzfp", &sim), {"abs", 0.1});
    FAIL() << "mode mismatch did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos) << e.what();
  }
  try {
    (void)CBench().run_one(field, *make_compressor("fz-cpu"), {"rate", 8.0});
    FAIL() << "mode mismatch did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("abs"), std::string::npos) << e.what();
  }
}

TEST(RegistryConformance, CapabilitiesAreConsistent) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  const auto names = available_compressors();
  for (const auto& name : names) {
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
    const auto& caps = codec_capabilities(name);
    EXPECT_EQ(caps.name, name);
    EXPECT_FALSE(caps.summary.empty()) << name;
    EXPECT_FALSE(caps.modes.empty()) << name;
    if (caps.needs_device()) {
      EXPECT_THROW((void)make_compressor(name, nullptr), InvalidArgument) << name;
      // Device codecs name a kernel profile the simulator models at a
      // positive rate.
      for (const double bitrate : {1.0, 8.0, 32.0}) {
        const auto rates = sim.kernel_rates(caps.kernel_profile, bitrate);
        EXPECT_GT(rates.compress_gbps, 0.0) << name << " at " << bitrate;
        EXPECT_GT(rates.decompress_gbps, 0.0) << name << " at " << bitrate;
      }
    } else {
      EXPECT_NO_THROW((void)make_compressor(name, nullptr)) << name;
      EXPECT_TRUE(caps.kernel_profile.empty()) << name;
    }
    // The registered default sweep materializes into supported-mode configs.
    ASSERT_FALSE(caps.default_sweep.empty()) << name;
    const auto candidates = default_grid_candidates(name, field);
    ASSERT_FALSE(candidates.empty()) << name;
    for (const auto& config : candidates) {
      EXPECT_TRUE(caps.supports_mode(config.mode)) << name << " " << config.label();
      EXPECT_GT(config.value, 0.0) << name << " " << config.label();
    }
  }
  EXPECT_THROW((void)codec_capabilities("no-such"), InvalidArgument);
  EXPECT_THROW((void)default_grid_candidates("no-such", field), InvalidArgument);
}

TEST(Registry, CodecTableRowsArePinned) {
  // The roster as the codec table defines it. Changing any capability of
  // any codec, or the order, has to be made here as well.
  struct Expected {
    const char* name;
    std::vector<std::string> modes;
    const char* kernel_profile;
    bool needs_device;
    bool concurrent_sessions_safe;
    bool throughput_reportable;
    bool plot_dashed;
    bool abs_rate_estimable;
    SweepAxis primary;
  };
  const SweepAxis abs{.mode = "abs",
                      .kind = SweepAxis::Kind::kRangeFractions,
                      .lo = 2e-6,
                      .hi = 2e-3,
                      .count = 4};
  const SweepAxis rate{.mode = "rate", .values = {1.0, 2.0, 4.0, 8.0}};
  const Expected expected[] = {
      {"gpu-sz", {"abs", "pw_rel"}, "sz", true, false, false, false, true, abs},
      {"cuzfp", {"rate"}, "zfp", true, false, true, true, false, rate},
      {"sz-cpu", {"abs", "pw_rel"}, "", false, true, true, false, true, abs},
      {"zfp-cpu", {"rate", "accuracy", "precision"}, "", false, true, true, true, false, rate},
      {"fz-cpu", {"abs"}, "", false, true, true, false, false, abs},
      {"fz-gpu", {"abs"}, "fz", true, false, true, false, false, abs},
  };
  const auto names = available_compressors();
  ASSERT_EQ(names.size(), std::size(expected));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Expected& want = expected[i];
    EXPECT_EQ(names[i], want.name) << "position " << i;
    const CodecCapabilities& caps = codec_capabilities(want.name);
    EXPECT_EQ(caps.name, want.name);
    EXPECT_EQ(caps.modes, want.modes) << want.name;
    EXPECT_EQ(caps.kernel_profile, want.kernel_profile) << want.name;
    EXPECT_EQ(caps.needs_device(), want.needs_device) << want.name;
    EXPECT_EQ(caps.concurrent_sessions_safe(), want.concurrent_sessions_safe) << want.name;
    EXPECT_EQ(caps.throughput_reportable, want.throughput_reportable) << want.name;
    EXPECT_EQ(caps.plot_dashed, want.plot_dashed) << want.name;
    EXPECT_EQ(caps.abs_rate_estimable, want.abs_rate_estimable) << want.name;
    ASSERT_FALSE(caps.default_sweep.empty()) << want.name;
    const SweepAxis& axis = caps.default_sweep.front();
    EXPECT_EQ(axis.mode, want.primary.mode) << want.name;
    EXPECT_EQ(axis.kind, want.primary.kind) << want.name;
    EXPECT_EQ(axis.values, want.primary.values) << want.name;
    EXPECT_EQ(axis.lo, want.primary.lo) << want.name;
    EXPECT_EQ(axis.hi, want.primary.hi) << want.name;
    EXPECT_EQ(axis.count, want.primary.count) << want.name;
  }
}

// ---------------------------------------------------------------------------
// FZ specifics: device timing, OOM fallback, spans, metrics
// ---------------------------------------------------------------------------

TEST(FzCodec, AppearsInCBenchSweepOutput) {
  NyxConfig nyx_config;
  nyx_config.dim = 8;
  const io::Container nyx = generate_nyx(nyx_config);
  const auto codec = make_compressor("fz-cpu");
  CBench bench({.keep_reconstructed = false, .dataset_name = "fz"});
  const auto results =
      bench.sweep(nyx, *codec, default_grid_candidates("fz-cpu", nyx.find("temperature").field),
                  [](const std::string& f) { return f == "temperature"; });
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_EQ(r.compressor, "fz-cpu");
    EXPECT_EQ(r.status, "ok");
    EXPECT_GT(r.ratio, 1.0);
  }
  EXPECT_NE(format_results(results).find("fz-cpu"), std::string::npos);
}

TEST(FzCodec, GpuVariantReportsDeviceTiming) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field field = conformance_field();
  const auto codec = make_compressor("fz-gpu", &sim);
  const CBenchResult out = CBench().run_one(field, *codec, {"abs", 0.1});
  EXPECT_TRUE(out.compress.has_gpu_timing);
  EXPECT_TRUE(out.throughput_reportable);
  EXPECT_GT(out.compress.gpu_timing.kernel, 0.0);
  EXPECT_GT(out.decompress.gpu_timing.memcpy, 0.0);
  // The device stream is the host stream: same codec, modeled transport.
  const auto host = make_compressor("fz-cpu");
  const std::vector<std::uint8_t> host_bytes =
      host->open_session()->compress(field, {"abs", 0.1}).bytes;
  EXPECT_EQ(out.compressed_bytes, host_bytes.size());
  EXPECT_EQ(out.stream_crc32, crc32(host_bytes.data(), host_bytes.size()));
}

TEST(FzCodec, OomFallsBackToHostByteIdentically) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_oom_every = 1;
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);

  auto& fallbacks = telemetry::MetricsRegistry::instance().counter("codec.cpu_fallbacks");
  const std::uint64_t fallbacks_before = fallbacks.value();

  const Field field = conformance_field();
  const auto codec = make_compressor("fz-gpu", &sim);
  const auto session = codec->open_session();
  const CompressResult c = session->compress(field, {"abs", 0.1});
  EXPECT_TRUE(c.telemetry.cpu_fallback);
  EXPECT_FALSE(c.telemetry.has_gpu_timing);
  EXPECT_FALSE(c.throughput_reportable);

  const auto host = make_compressor("fz-cpu");
  EXPECT_EQ(c.bytes, host->open_session()->compress(field, {"abs", 0.1}).bytes);

  const DecompressResult d = session->decompress(c);
  EXPECT_TRUE(d.telemetry.cpu_fallback);
  EXPECT_EQ(d.values.size(), field.data.size());
  EXPECT_GE(plan.counts().gpu_ooms, 2u);
  EXPECT_GE(fallbacks.value(), fallbacks_before + 2);
}

TEST(FzCodec, EmitsTraceSpans) {
  TracerOffGuard guard;
  const Field field = conformance_field();
  const auto codec = make_compressor("fz-cpu");
  Tracer::enable();
  {
    const auto session = codec->open_session();
    const CompressResult c = session->compress(field, {"abs", 0.1});
    (void)session->decompress(c);
  }
  Tracer::disable();
  std::vector<std::string> seen;
  for (const auto& span : Tracer::snapshot()) seen.emplace_back(span.name);
  for (const char* expected :
       {"fz-cpu.compress", "fz.compress", "fz-cpu.decompress", "fz.decompress"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), expected), seen.end())
        << "missing span " << expected;
  }
}

}  // namespace
}  // namespace cosmo::foresight
