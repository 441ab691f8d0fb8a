#include <gtest/gtest.h>

#include <cmath>

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
    EXPECT_FALSE(codec->supported_modes().empty());
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
  EXPECT_FALSE(out.has_gpu_timing());
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
  EXPECT_TRUE(out.has_gpu_timing());
  EXPECT_FALSE(out.throughput_reportable);  // GPU-SZ prototype
}

TEST(Compressor, CuZfpProducesGpuTiming) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const Field f = smooth_field(Dims::d3(16, 16, 16), 166);
  const CBenchResult out = CBench().run_one(f, *codec, {"rate", 4.0});
  EXPECT_TRUE(out.has_gpu_timing());
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

}  // namespace
}  // namespace cosmo::foresight
