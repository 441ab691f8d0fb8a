#include <gtest/gtest.h>

#include <cmath>

#include "random/rng.hpp"
#include "sz/pwrel.hpp"

namespace cosmo::sz {
namespace {

std::vector<float> velocity_like(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (auto& v : data) {
    // Wide dynamic range with both signs, like HACC velocities.
    const double mag = std::exp(rng.uniform(0.0, 9.0));
    v = static_cast<float>(rng.uniform() < 0.5 ? -mag : mag);
  }
  return data;
}

double max_rel_error(std::span<const float> orig, std::span<const float> recon,
                     double ignore_below) {
  double worst = 0.0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (std::fabs(orig[i]) <= ignore_below) continue;
    worst = std::max(worst, std::fabs(static_cast<double>(recon[i]) - orig[i]) /
                                std::fabs(static_cast<double>(orig[i])));
  }
  return worst;
}

TEST(PwRel, RelativeBoundHolds) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = velocity_like(dims.count(), 71);
  PwRelParams params;
  params.pw_rel_bound = 0.01;
  const auto bytes = compress_pwrel(data, dims, params);
  Dims out_dims;
  const auto recon = decompress_pwrel(bytes, &out_dims);
  EXPECT_EQ(out_dims, dims);
  EXPECT_LE(max_rel_error(data, recon, 0.0), params.pw_rel_bound * (1 + 1e-6));
}

TEST(PwRel, SignsPreserved) {
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = velocity_like(dims.count(), 72);
  PwRelParams params;
  params.pw_rel_bound = 0.1;
  const auto recon = decompress_pwrel(compress_pwrel(data, dims, params));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] > 0.0f) {
      EXPECT_GT(recon[i], 0.0f) << i;
    }
    if (data[i] < 0.0f) {
      EXPECT_LT(recon[i], 0.0f) << i;
    }
  }
}

TEST(PwRel, ZerosReconstructExactly) {
  const Dims dims = Dims::d3(8, 8, 8);
  auto data = velocity_like(dims.count(), 73);
  for (std::size_t i = 0; i < data.size(); i += 7) data[i] = 0.0f;
  PwRelParams params;
  params.pw_rel_bound = 0.05;
  const auto recon = decompress_pwrel(compress_pwrel(data, dims, params));
  for (std::size_t i = 0; i < data.size(); i += 7) {
    EXPECT_EQ(recon[i], 0.0f) << i;
  }
}

TEST(PwRel, SubThresholdValuesFlushToZero) {
  const Dims dims = Dims::d3(8, 8, 8);
  std::vector<float> data(dims.count(), 1000.0f);
  data[5] = 1e-20f;  // far below max * 1e-10
  PwRelParams params;
  params.pw_rel_bound = 0.01;
  const auto recon = decompress_pwrel(compress_pwrel(data, dims, params));
  EXPECT_EQ(recon[5], 0.0f);
}

TEST(PwRel, LooserBoundGivesBetterRatio) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = velocity_like(dims.count(), 74);
  PwRelParams tight, loose;
  tight.pw_rel_bound = 0.001;
  loose.pw_rel_bound = 0.1;
  EXPECT_LT(compress_pwrel(data, dims, loose).size(),
            compress_pwrel(data, dims, tight).size());
}

TEST(PwRel, StatsPopulated) {
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = velocity_like(dims.count(), 75);
  PwRelParams params;
  params.pw_rel_bound = 0.01;
  Stats stats;
  const auto bytes = compress_pwrel(data, dims, params, &stats);
  EXPECT_EQ(stats.compressed_bytes, bytes.size());
  EXPECT_GT(stats.bit_rate, 0.0);
}

TEST(PwRel, InvalidBoundsRejected) {
  const std::vector<float> data(64, 1.0f);
  PwRelParams params;
  params.pw_rel_bound = 0.0;
  EXPECT_THROW(compress_pwrel(data, Dims::d3(4, 4, 4), params), InvalidArgument);
  params.pw_rel_bound = 1.5;
  EXPECT_THROW(compress_pwrel(data, Dims::d3(4, 4, 4), params), InvalidArgument);
}

TEST(PwRel, CorruptStreamThrows) {
  const std::vector<float> data(64, 1.0f);
  PwRelParams params;
  params.pw_rel_bound = 0.01;
  auto bytes = compress_pwrel(data, Dims::d3(4, 4, 4), params);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decompress_pwrel(bytes), FormatError);
  bytes[0] ^= 0xFF;
  bytes.resize(10);
  EXPECT_THROW(decompress_pwrel(bytes), FormatError);
}

/// Property sweep across relative bounds.
class PwRelSweep : public ::testing::TestWithParam<double> {};

TEST_P(PwRelSweep, BoundHolds) {
  const double bound = GetParam();
  const Dims dims = Dims::d3(12, 12, 12);
  const auto data = velocity_like(dims.count(), 76);
  PwRelParams params;
  params.pw_rel_bound = bound;
  const auto recon = decompress_pwrel(compress_pwrel(data, dims, params));
  EXPECT_LE(max_rel_error(data, recon, 0.0), bound * (1 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Bounds, PwRelSweep,
                         ::testing::Values(1e-3, 1e-2, 0.05, 0.1, 0.25));

}  // namespace
}  // namespace cosmo::sz
