#include <gtest/gtest.h>

#include <cmath>

#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"
#include "foresight/compressor.hpp"
#include "random/rng.hpp"

namespace cosmo::foresight {
namespace {

Field smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  Field f("field", dims);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    f.data[i] = static_cast<float>(100.0 * std::sin(0.01 * static_cast<double>(i)) +
                                   rng.normal());
  }
  return f;
}

TEST(Registry, AllCompressorsAvailable) {
  const auto names = available_compressors();
  EXPECT_EQ(names, (std::vector<std::string>{"gpu-sz", "cuzfp", "sz-cpu", "zfp-cpu", "fz-cpu",
                                             "fz-gpu"}));
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  for (const auto& name : names) {
    const auto codec = make_compressor(name, &sim);
    EXPECT_EQ(codec->name(), name);
    EXPECT_FALSE(codec->capabilities().modes.empty());
  }
}

TEST(Registry, GpuCompressorsNeedSimulator) {
  EXPECT_THROW(make_compressor("gpu-sz", nullptr), InvalidArgument);
  EXPECT_THROW(make_compressor("cuzfp", nullptr), InvalidArgument);
  EXPECT_THROW(make_compressor("fz-gpu", nullptr), InvalidArgument);
  EXPECT_NO_THROW(make_compressor("sz-cpu", nullptr));
  EXPECT_NO_THROW(make_compressor("zfp-cpu", nullptr));
  EXPECT_NO_THROW(make_compressor("fz-cpu", nullptr));
  EXPECT_THROW(make_compressor("nonexistent", nullptr), InvalidArgument);
}

TEST(Config, LabelFormat) {
  EXPECT_EQ((CompressorConfig{"abs", 0.2}.label()), "abs=0.2");
  EXPECT_EQ((CompressorConfig{"rate", 4.0}.label()), "rate=4");
  EXPECT_EQ((CompressorConfig{"pw_rel", 0.01}.label()), "pw_rel=0.01");
}

TEST(Reshape, PaperDimensionConversion) {
  // (ceil(n/64), 8, 8) — the 2,097,152 x 8 x 8 layout at HACC scale.
  const Dims d = reshape_1d_to_3d(1073726359);
  EXPECT_EQ(d.ny, 8u);
  EXPECT_EQ(d.nz, 8u);
  EXPECT_GE(d.count(), 1073726359u);
  EXPECT_LT(d.count() - 1073726359u, 64u);  // padding below one row
  EXPECT_EQ(reshape_1d_to_3d(64).nx, 1u);
  EXPECT_EQ(reshape_1d_to_3d(65).nx, 2u);
}

TEST(Compressor, SzCpuAbsHonorsBound) {
  const auto codec = make_compressor("sz-cpu");
  const Field f = smooth_field(Dims::d3(16, 16, 16), 161);
  const CBenchResult out = CBench().run_one(f, *codec, {"abs", 0.05});
  ASSERT_EQ(out.reconstructed.size(), f.data.size());
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(out.reconstructed[i] - f.data[i]), 0.05 * (1 + 1e-9));
  }
  EXPECT_FALSE(out.compress.has_gpu_timing);
  EXPECT_GE(out.compress.seconds, 0.0);
  EXPECT_TRUE(out.throughput_reportable);
}

TEST(Compressor, SzCpuPwrelMode) {
  const auto codec = make_compressor("sz-cpu");
  Field f = smooth_field(Dims::d3(8, 8, 8), 162);
  for (auto& v : f.data) v = std::fabs(v) + 1.0f;
  const CBenchResult out = CBench().run_one(f, *codec, {"pw_rel", 0.05});
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(out.reconstructed[i] - f.data[i]) / f.data[i],
              0.05 * (1 + 1e-6));
  }
}

TEST(Compressor, ZfpCpuBothModes) {
  const auto codec = make_compressor("zfp-cpu");
  const Field f = smooth_field(Dims::d3(16, 16, 16), 163);
  const CBenchResult rate_out = CBench().run_one(f, *codec, {"rate", 8.0});
  EXPECT_LE(rate_out.compressed_bytes * 8.0 / f.data.size(), 8.5);
  const CBenchResult acc_out = CBench().run_one(f, *codec, {"accuracy", 0.1});
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(acc_out.reconstructed[i] - f.data[i]), 0.1);
  }
}

TEST(Compressor, UnsupportedModeRejected) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const Field f = smooth_field(Dims::d3(8, 8, 8), 164);
  const CBench bench;
  EXPECT_THROW(bench.run_one(f, *make_compressor("cuzfp", &sim), {"abs", 0.1}),
               InvalidArgument);
  EXPECT_THROW(bench.run_one(f, *make_compressor("gpu-sz", &sim), {"rate", 4.0}),
               InvalidArgument);
  EXPECT_THROW(bench.run_one(f, *make_compressor("sz-cpu"), {"rate", 4.0}), InvalidArgument);
}

TEST(Compressor, GpuSzAuto3dConversionFor1d) {
  // The paper's procedure: 1-D HACC arrays are reshaped before GPU-SZ.
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("gpu-sz", &sim);
  const Field f = smooth_field(Dims::d1(10000), 165);
  const CBenchResult out = CBench().run_one(f, *codec, {"abs", 0.1});
  ASSERT_EQ(out.reconstructed.size(), f.data.size());  // padding dropped
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_LE(std::fabs(out.reconstructed[i] - f.data[i]), 0.1 * (1 + 1e-9));
  }
  EXPECT_TRUE(out.compress.has_gpu_timing);
  EXPECT_FALSE(out.throughput_reportable);  // GPU-SZ prototype
}

TEST(Compressor, CuZfpProducesGpuTiming) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const Field f = smooth_field(Dims::d3(16, 16, 16), 166);
  const CBenchResult out = CBench().run_one(f, *codec, {"rate", 4.0});
  EXPECT_TRUE(out.compress.has_gpu_timing);
  EXPECT_TRUE(out.throughput_reportable);
  EXPECT_GT(out.compress.gpu_timing.kernel, 0.0);
  EXPECT_GT(out.decompress.gpu_timing.memcpy, 0.0);
  EXPECT_DOUBLE_EQ(out.compress.seconds, out.compress.gpu_timing.total());
}

TEST(Compressor, CuZfp1dReshapeRoundTrip) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const Field f = smooth_field(Dims::d1(5000), 167);
  const CBenchResult out = CBench().run_one(f, *codec, {"rate", 16.0});
  ASSERT_EQ(out.reconstructed.size(), f.data.size());
  double rmse = 0.0;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    rmse += std::pow(out.reconstructed[i] - f.data[i], 2.0);
  }
  rmse = std::sqrt(rmse / static_cast<double>(f.data.size()));
  EXPECT_LT(rmse, 1.0);
}

void expect_same_breakdown(const TimingBreakdown& got, const TimingBreakdown& want,
                           const std::string& what) {
  EXPECT_EQ(got.init, want.init) << what;
  EXPECT_EQ(got.kernel, want.kernel) << what;
  EXPECT_EQ(got.memcpy, want.memcpy) << what;
  EXPECT_EQ(got.free, want.free) << what;
}

TEST(Compressor, DeviceTimingsMatchATwinSimulator) {
  // A device session's timing is the simulator's model at the codec's
  // kernel_rates() profile: compress at the achieved stream bitrate (cuZFP
  // at its requested rate), decompress at the decoded extent, both counting
  // the 1-D -> 3-D padding. A twin simulator with the same seed, fed the
  // same calls, reproduces every component bit for bit.
  NyxConfig nyx;
  nyx.dim = 16;
  const io::Container grid = generate_nyx(nyx);
  HaccConfig hacc;
  hacc.particles = 5000;
  const io::Container particles = generate_hacc(hacc);
  struct Case {
    const char* codec;
    const char* profile;
    CompressorConfig config;
    bool reshaped;
  };
  const Case cases[] = {{"gpu-sz", "sz", {"abs", 0.1}, true},
                        {"gpu-sz", "sz", {"pw_rel", 0.05}, true},
                        {"cuzfp", "zfp", {"rate", 8.0}, true},
                        {"fz-gpu", "fz", {"abs", 0.1}, false}};
  for (const Field* field : {&grid.find("baryon_density").field, &particles.find("x").field}) {
    for (const Case& k : cases) {
      const std::string what = std::string(k.codec) + " " + k.config.label() + " on " +
                               field->name;
      gpu::GpuSimulator sim(gpu::find_device("V100"), 99);
      gpu::GpuSimulator twin(gpu::find_device("V100"), 99);
      const auto codec = make_compressor(k.codec, &sim);
      const auto session = codec->open_session();
      const CompressResult c = session->compress(*field, k.config);
      const DecompressResult d = session->decompress(c);
      ASSERT_EQ(d.values.size(), field->data.size()) << what;

      const std::size_t values = k.reshaped && field->dims.rank() == 1
                                     ? reshape_1d_to_3d(field->data.size()).count()
                                     : field->data.size();
      const double bitrate =
          static_cast<double>(c.bytes.size()) * 8.0 / static_cast<double>(values);
      const double compress_bitrate = k.config.mode == "rate" ? k.config.value : bitrate;
      const TimingBreakdown want_c = twin.model_compression(
          values * sizeof(float), c.bytes.size(),
          twin.kernel_rates(k.profile, compress_bitrate).compress_gbps);
      const TimingBreakdown want_d = twin.model_decompression(
          values * sizeof(float), c.bytes.size(),
          twin.kernel_rates(k.profile, bitrate).decompress_gbps);
      ASSERT_TRUE(c.telemetry.has_gpu_timing && d.telemetry.has_gpu_timing) << what;
      expect_same_breakdown(c.telemetry.gpu_timing, want_c, what + " compress");
      expect_same_breakdown(d.telemetry.gpu_timing, want_d, what + " decompress");
      EXPECT_EQ(c.seconds(), want_c.total()) << what;
      EXPECT_EQ(d.seconds(), want_d.total()) << what;
      EXPECT_EQ(c.telemetry.device_attempts, 1) << what;
    }
  }
}

}  // namespace
}  // namespace cosmo::foresight
