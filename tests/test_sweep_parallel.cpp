/// Parallel CBench sweeps must be drop-in replacements for serial ones:
/// same rows, same order, byte-identical sizes/ratios/distortion. For the
/// GPU-simulated codecs the scheduler must additionally leave the modeled
/// TimingBreakdown untouched (they fall back to the serial path, since the
/// simulator's jitter stream is call-order dependent).
#include <gtest/gtest.h>

#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"

namespace cosmo::foresight {
namespace {

io::Container small_nyx() {
  NyxConfig config;
  config.dim = 16;
  return generate_nyx(config);
}

const std::vector<CompressorConfig> kCpuConfigs = {
    {"rate", 4.0}, {"rate", 8.0}, {"accuracy", 0.5}};

void expect_identical(const std::vector<CBenchResult>& serial,
                      const std::vector<CBenchResult>& parallel,
                      bool modeled_timing) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].field + " " + serial[i].config.label());
    EXPECT_EQ(serial[i].field, parallel[i].field);
    EXPECT_EQ(serial[i].config.label(), parallel[i].config.label());
    EXPECT_EQ(serial[i].compressed_bytes, parallel[i].compressed_bytes);
    EXPECT_EQ(serial[i].ratio, parallel[i].ratio);
    EXPECT_EQ(serial[i].bit_rate, parallel[i].bit_rate);
    EXPECT_EQ(serial[i].distortion.mse, parallel[i].distortion.mse);
    EXPECT_EQ(serial[i].distortion.psnr_db, parallel[i].distortion.psnr_db);
    EXPECT_EQ(serial[i].distortion.mre, parallel[i].distortion.mre);
    EXPECT_EQ(serial[i].reconstructed, parallel[i].reconstructed);
    if (modeled_timing) {
      // Modeled GPU timings are part of the result contract, not noise.
      EXPECT_EQ(serial[i].compress.seconds, parallel[i].compress.seconds);
      EXPECT_EQ(serial[i].decompress.seconds, parallel[i].decompress.seconds);
      EXPECT_EQ(serial[i].compress.gpu_timing.kernel, parallel[i].compress.gpu_timing.kernel);
      EXPECT_EQ(serial[i].compress.gpu_timing.memcpy, parallel[i].compress.gpu_timing.memcpy);
      EXPECT_EQ(serial[i].decompress.gpu_timing.kernel, parallel[i].decompress.gpu_timing.kernel);
    }
  }
}

TEST(SweepParallel, CpuCodecMatchesSerialByteForByte) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  ASSERT_TRUE(codec->concurrent_sessions_safe());

  CBench serial_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 1});
  CBench parallel_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 4});
  const auto serial = serial_bench.sweep(data, *codec, kCpuConfigs);
  const auto parallel = parallel_bench.sweep(data, *codec, kCpuConfigs);
  ASSERT_EQ(serial.size(), 6u * kCpuConfigs.size());
  expect_identical(serial, parallel, /*modeled_timing=*/false);
}

TEST(SweepParallel, SzCpuMatchesSerialByteForByte) {
  const auto data = small_nyx();
  const auto codec = make_compressor("sz-cpu");
  ASSERT_TRUE(codec->concurrent_sessions_safe());

  const std::vector<CompressorConfig> configs = {{"abs", 0.5}, {"pw_rel", 0.01}};
  CBench serial_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 1});
  CBench parallel_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 3});
  expect_identical(serial_bench.sweep(data, *codec, configs),
                   parallel_bench.sweep(data, *codec, configs),
                   /*modeled_timing=*/false);
}

TEST(SweepParallel, GpuSimulatedCodecKeepsModeledTimings) {
  const auto data = small_nyx();
  // Two simulators with identical specs: each sweep consumes its own jitter
  // stream from the start, so even the modeled timings must line up exactly
  // if (and only if) the parallel sweep preserves the serial call order.
  gpu::GpuSimulator sim_serial(gpu::find_device("V100"));
  gpu::GpuSimulator sim_parallel(gpu::find_device("V100"));
  const auto serial_codec = make_compressor("cuzfp", &sim_serial);
  const auto parallel_codec = make_compressor("cuzfp", &sim_parallel);
  ASSERT_FALSE(serial_codec->concurrent_sessions_safe());

  const std::vector<CompressorConfig> configs = {{"rate", 4.0}, {"rate", 8.0}};
  CBench serial_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 1});
  CBench parallel_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 4});
  expect_identical(serial_bench.sweep(data, *serial_codec, configs),
                   parallel_bench.sweep(data, *parallel_codec, configs),
                   /*modeled_timing=*/true);
}

TEST(SweepParallel, GpuSzKeepsModeledTimings) {
  const auto data = small_nyx();
  gpu::GpuSimulator sim_serial(gpu::find_device("V100"));
  gpu::GpuSimulator sim_parallel(gpu::find_device("V100"));
  const auto serial_codec = make_compressor("gpu-sz", &sim_serial);
  const auto parallel_codec = make_compressor("gpu-sz", &sim_parallel);

  const std::vector<CompressorConfig> configs = {{"abs", 0.5}};
  CBench serial_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 1});
  CBench parallel_bench({.keep_reconstructed = true, .dataset_name = "nyx", .threads = 2});
  expect_identical(serial_bench.sweep(data, *serial_codec, configs),
                   parallel_bench.sweep(data, *parallel_codec, configs),
                   /*modeled_timing=*/true);
}

TEST(SweepParallel, AutoThreadsUsesGlobalPool) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench serial_bench({.keep_reconstructed = false, .dataset_name = "nyx", .threads = 1});
  CBench auto_bench({.keep_reconstructed = false, .dataset_name = "nyx", .threads = 0});
  expect_identical(serial_bench.sweep(data, *codec, kCpuConfigs),
                   auto_bench.sweep(data, *codec, kCpuConfigs),
                   /*modeled_timing=*/false);
}

TEST(SweepParallel, FieldFilterAndOrderPreserved) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench({.keep_reconstructed = false, .dataset_name = "nyx", .threads = 4});
  const auto results =
      bench.sweep(data, *codec, kCpuConfigs, [](const std::string& name) {
        return name == "temperature" || name == "velocity_x";
      });
  // Field-major, config-minor: temperature rows first (container order),
  // each field sweeping configs in the given order.
  ASSERT_EQ(results.size(), 2u * kCpuConfigs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& expect_cfg = kCpuConfigs[i % kCpuConfigs.size()];
    EXPECT_EQ(results[i].field, i < kCpuConfigs.size() ? "temperature" : "velocity_x");
    EXPECT_EQ(results[i].config.label(), expect_cfg.label());
  }
}

TEST(SweepParallel, WorkerExceptionPropagates) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench({.keep_reconstructed = false, .dataset_name = "nyx", .threads = 4});
  // "abs" is not a zfp-cpu mode; the worker's exception must reach the caller.
  EXPECT_THROW(bench.sweep(data, *codec, {{"rate", 8.0}, {"abs", 0.5}}),
               InvalidArgument);
}

}  // namespace
}  // namespace cosmo::foresight
