#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "random/rng.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::zfp {
namespace {

std::vector<float> smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  const double phase = rng.uniform(0.0, 6.28);
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x) {
        data[dims.index(x, y, z)] = static_cast<float>(
            50.0 * std::sin(0.2 * static_cast<double>(x) + phase) +
            30.0 * std::cos(0.15 * static_cast<double>(y)) +
            20.0 * std::sin(0.1 * static_cast<double>(z)));
      }
    }
  }
  return data;
}

double rmse(std::span<const float> a, std::span<const float> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double e = static_cast<double>(a[i]) - b[i];
    sum += e * e;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

TEST(Zfp, FixedRateHonorsRateBudget) {
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field(dims, 91);
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    Params params;
    params.mode = Mode::kFixedRate;
    params.rate = rate;
    Stats stats;
    const auto bytes = compress(data, dims, params, &stats);
    // Actual bitrate must not exceed the budget by more than header slack.
    const double actual_rate =
        static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(data.size());
    EXPECT_LE(actual_rate, rate + 0.2) << "rate " << rate;
    EXPECT_EQ(stats.compressed_bytes, bytes.size());
  }
}

TEST(Zfp, FixedRateRoundTripQualityScalesWithRate) {
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field(dims, 92);
  double prev_rmse = 1e300;
  for (const double rate : {2.0, 4.0, 8.0, 16.0}) {
    Params params;
    params.rate = rate;
    const auto recon = decompress(compress(data, dims, params));
    const double e = rmse(data, recon);
    EXPECT_LT(e, prev_rmse) << "rate " << rate;
    prev_rmse = e;
  }
  EXPECT_LT(prev_rmse, 1e-2);  // 16 bits/value on a smooth field is tight
}

TEST(Zfp, RoundTripAllRanks) {
  for (const int rank : {1, 2, 3}) {
    Dims dims;
    if (rank == 1) dims = Dims::d1(4096);
    else if (rank == 2) dims = Dims::d2(64, 64);
    else dims = Dims::d3(16, 16, 16);
    const auto data = smooth_field(dims, 93 + static_cast<std::uint64_t>(rank));
    Params params;
    params.rate = 12.0;
    Dims out_dims;
    const auto recon = decompress(compress(data, dims, params), &out_dims);
    EXPECT_EQ(out_dims, dims);
    ASSERT_EQ(recon.size(), data.size());
    EXPECT_LT(rmse(data, recon), 0.5);
  }
}

TEST(Zfp, PartialBlocksReconstruct) {
  const Dims dims = Dims::d3(13, 9, 11);  // not multiples of 4
  const auto data = smooth_field(dims, 94);
  Params params;
  params.rate = 16.0;
  const auto recon = decompress(compress(data, dims, params));
  ASSERT_EQ(recon.size(), data.size());
  EXPECT_LT(rmse(data, recon), 0.1);
}

TEST(Zfp, FixedAccuracyBoundsError) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth_field(dims, 95);
  for (const double tol : {1.0, 0.1, 0.01}) {
    Params params;
    params.mode = Mode::kFixedAccuracy;
    params.tolerance = tol;
    const auto recon = decompress(compress(data, dims, params));
    double max_err = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      max_err = std::max(max_err, std::fabs(static_cast<double>(data[i]) - recon[i]));
    }
    EXPECT_LE(max_err, tol) << "tol " << tol;
  }
}

TEST(Zfp, FixedAccuracyTighterCostsMore) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth_field(dims, 96);
  Params loose, tight;
  loose.mode = tight.mode = Mode::kFixedAccuracy;
  loose.tolerance = 1.0;
  tight.tolerance = 1e-4;
  EXPECT_LT(compress(data, dims, loose).size(), compress(data, dims, tight).size());
}

TEST(Zfp, ConstantFieldIsCheapInAccuracyMode) {
  const Dims dims = Dims::d3(32, 32, 32);
  const std::vector<float> data(dims.count(), 7.5f);
  Params params;
  params.mode = Mode::kFixedAccuracy;
  params.tolerance = 1e-3;
  Stats stats;
  const auto bytes = compress(data, dims, params, &stats);
  EXPECT_LT(stats.bit_rate, 1.0);
  const auto recon = decompress(bytes);
  for (const float v : recon) EXPECT_NEAR(v, 7.5f, 1e-3);
}

TEST(Zfp, GaussianLikeErrorDistribution) {
  // The paper notes ZFP produces a Gaussian-like error distribution; at
  // minimum the errors should be roughly symmetric around zero.
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field(dims, 97);
  Params params;
  params.rate = 6.0;
  const auto recon = decompress(compress(data, dims, params));
  double mean_err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    mean_err += static_cast<double>(recon[i]) - data[i];
  }
  mean_err /= static_cast<double>(data.size());
  const double scale = rmse(data, recon);
  EXPECT_LT(std::fabs(mean_err), 0.25 * scale + 1e-12);
}

TEST(Zfp, NegativeAndMixedSignData) {
  const Dims dims = Dims::d3(8, 8, 8);
  Rng rng(98);
  std::vector<float> data(dims.count());
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1e4, 1e4));
  Params params;
  params.rate = 20.0;
  const auto recon = decompress(compress(data, dims, params));
  EXPECT_LT(rmse(data, recon), 10.0);
}

TEST(Zfp, DeterministicOutput) {
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = smooth_field(dims, 99);
  Params params;
  params.rate = 8.0;
  EXPECT_EQ(compress(data, dims, params), compress(data, dims, params));
}

TEST(Zfp, InvalidInputsRejected) {
  Params params;
  EXPECT_THROW(compress({}, Dims::d1(0), params), InvalidArgument);
  const std::vector<float> data(16, 1.0f);
  params.rate = 0.0;
  EXPECT_THROW(compress(data, Dims::d1(16), params), InvalidArgument);
  params.rate = 40.0;
  EXPECT_THROW(compress(data, Dims::d1(16), params), InvalidArgument);
  params = Params{};
  params.mode = Mode::kFixedAccuracy;
  params.tolerance = 0.0;
  EXPECT_THROW(compress(data, Dims::d1(16), params), InvalidArgument);
}

TEST(Zfp, CorruptStreamThrows) {
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = smooth_field(dims, 100);
  Params params;
  params.rate = 8.0;
  auto bytes = compress(data, dims, params);
  bytes.resize(10);
  EXPECT_THROW(decompress(bytes), FormatError);
  bytes = {1, 2, 3, 4, 5};
  EXPECT_THROW(decompress(bytes), FormatError);
}

TEST(Zfp, HostileModeParameterIsFormatError) {
  // The stored mode parameter feeds a float -> int conversion (floor(log2
  // tolerance), or the precision itself); values outside its range must be
  // rejected before that cast, not decoded through it.
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = smooth_field(dims, 101);
  constexpr std::size_t kParamOffset = 33;  // magic, mode byte, 3 extents, maxbits
  const auto stream_with = [&](Mode mode, double stored) {
    Params params;
    params.mode = mode;
    params.tolerance = 0.5;
    params.precision = 12;
    auto bytes = compress(data, dims, params);
    std::memcpy(bytes.data() + kParamOffset, &stored, sizeof(stored));
    return bytes;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double tolerance : {0.0, -0.0, -1.0, inf, -inf, nan}) {
    EXPECT_THROW(decompress(stream_with(Mode::kFixedAccuracy, tolerance)), FormatError)
        << "tolerance " << tolerance;
  }
  for (const double precision : {0.0, -5.0, 4.5, 33.0, 1e30, inf, nan}) {
    EXPECT_THROW(decompress(stream_with(Mode::kFixedPrecision, precision)), FormatError)
        << "precision " << precision;
  }
  // The patch itself is sound: rewriting the encoded values still decodes.
  EXPECT_NO_THROW(decompress(stream_with(Mode::kFixedAccuracy, 0.5)));
  EXPECT_NO_THROW(decompress(stream_with(Mode::kFixedPrecision, 12.0)));

  // compress() rejects a non-finite tolerance with a typed error.
  Params params;
  params.mode = Mode::kFixedAccuracy;
  for (const double tolerance : {inf, nan}) {
    params.tolerance = tolerance;
    EXPECT_THROW(compress(data, dims, params), InvalidArgument) << "tolerance " << tolerance;
  }
}

TEST(Zfp, BlockBitsForRate) {
  EXPECT_EQ(block_bits_for_rate(4.0, 3), 256u);
  EXPECT_EQ(block_bits_for_rate(8.0, 2), 128u);
  EXPECT_EQ(block_bits_for_rate(16.0, 1), 64u);
  // Tiny rates are clamped to a workable minimum.
  EXPECT_GE(block_bits_for_rate(0.1, 1), 12u);
}

/// Rate sweep property: fixed-rate contract across ranks.
class ZfpRateSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ZfpRateSweep, RateContractHolds) {
  const auto [rate, rank] = GetParam();
  Dims dims;
  if (rank == 1) dims = Dims::d1(4096);
  else if (rank == 2) dims = Dims::d2(64, 64);
  else dims = Dims::d3(16, 16, 16);
  const auto data = smooth_field(dims, 200 + static_cast<std::uint64_t>(rank));
  Params params;
  params.rate = rate;
  const auto bytes = compress(data, dims, params);
  const double actual =
      static_cast<double>(bytes.size()) * 8.0 / static_cast<double>(data.size());
  // Partial blocks + header allow small overshoot only.
  EXPECT_LE(actual, rate * 1.1 + 2.0);
  const auto recon = decompress(bytes);
  ASSERT_EQ(recon.size(), data.size());
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndRanks, ZfpRateSweep,
    ::testing::Combine(::testing::Values(2.0, 4.0, 8.0, 16.0),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace cosmo::zfp
