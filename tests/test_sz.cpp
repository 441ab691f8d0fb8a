#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "random/rng.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "sz_reference.hpp"

namespace cosmo::sz {
namespace {

std::vector<float> smooth_field_3d(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  const double phase = rng.uniform(0.0, 6.28);
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x) {
        data[dims.index(x, y, z)] = static_cast<float>(
            100.0 * std::sin(0.1 * static_cast<double>(x) + phase) *
                std::cos(0.13 * static_cast<double>(y)) +
            10.0 * std::sin(0.07 * static_cast<double>(z)) +
            0.3 * rng.normal());
      }
    }
  }
  return data;
}

double max_abs_error(std::span<const float> a, std::span<const float> b) {
  double max_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return max_err;
}

TEST(Sz, RoundTripRespectsErrorBound3d) {
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field_3d(dims, 51);
  Params params;
  params.abs_error_bound = 0.05;
  Stats stats;
  const auto bytes = compress(data, dims, params, &stats);
  Dims out_dims;
  const auto recon = decompress(bytes, &out_dims);
  EXPECT_EQ(out_dims, dims);
  ASSERT_EQ(recon.size(), data.size());
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
  EXPECT_EQ(stats.total_points, data.size());
  EXPECT_GT(stats.total_blocks, 0u);
}

TEST(Sz, NonFiniteValuesRoundTripBitExactInAbsMode) {
  // NaN (quiet, negative, signalling) and +-Inf, alone and repeated: every
  // non-finite value is unpredictable, stored verbatim and restored bit
  // for bit; the finite ones keep the bound.
  std::vector<float> data(8192);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
    if (i % 97 == 3) data[i] = std::numeric_limits<float>::quiet_NaN();
    if (i % 89 == 5 || i % 89 == 6) data[i] = inf;
    if (i % 83 == 7 || i % 83 == 8) data[i] = -inf;
    if (i % 101 == 9) data[i] = std::bit_cast<float>(0xFFC00001u);
    if (i % 103 == 10) data[i] = std::bit_cast<float>(0x7F800001u);
  }
  Params params;
  params.abs_error_bound = 1e-3;
  const auto recon = decompress(compress(data, Dims::d1(data.size()), params));
  ASSERT_EQ(recon.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::isfinite(data[i])) {
      ASSERT_LE(std::fabs(static_cast<double>(recon[i]) - data[i]), params.abs_error_bound)
          << "at " << i;
    } else {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(recon[i]), std::bit_cast<std::uint32_t>(data[i]))
          << "at " << i;
    }
  }
}

TEST(Sz, CompressesSmoothDataWell) {
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field_3d(dims, 52);
  Params params;
  params.abs_error_bound = 0.5;
  Stats stats;
  const auto bytes = compress(data, dims, params, &stats);
  // Smooth field at a generous bound: expect well over 8x.
  EXPECT_LT(bytes.size(), data.size() * sizeof(float) / 8);
  EXPECT_GT(stats.bit_rate, 0.0);
  EXPECT_LT(stats.bit_rate, 4.0);
}

TEST(Sz, TighterBoundCostsMoreBits) {
  const Dims dims = Dims::d3(32, 32, 32);
  const auto data = smooth_field_3d(dims, 53);
  Params loose, tight;
  loose.abs_error_bound = 1.0;
  tight.abs_error_bound = 0.001;
  const auto loose_bytes = compress(data, dims, loose);
  const auto tight_bytes = compress(data, dims, tight);
  EXPECT_LT(loose_bytes.size(), tight_bytes.size());
}

TEST(Sz, RoundTrip1d) {
  const Dims dims = Dims::d1(5000);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) * 50.0);
  }
  Params params;
  params.abs_error_bound = 0.01;
  const auto recon = decompress(compress(data, dims, params));
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, RoundTrip2d) {
  const Dims dims = Dims::d2(64, 48);
  std::vector<float> data(dims.count());
  for (std::size_t y = 0; y < dims.ny; ++y) {
    for (std::size_t x = 0; x < dims.nx; ++x) {
      data[dims.index(x, y, 0)] =
          static_cast<float>(x) * 0.5f - static_cast<float>(y) * 0.25f;
    }
  }
  Params params;
  params.abs_error_bound = 0.02;
  const auto recon = decompress(compress(data, dims, params));
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, NonMultipleBlockDimensions) {
  const Dims dims = Dims::d3(13, 9, 11);  // not multiples of block edge 8
  const auto data = smooth_field_3d(dims, 54);
  Params params;
  params.abs_error_bound = 0.1;
  const auto recon = decompress(compress(data, dims, params));
  ASSERT_EQ(recon.size(), data.size());
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, RandomNoiseStillBounded) {
  // Worst case for prediction: white noise with a huge range.
  const Dims dims = Dims::d3(16, 16, 16);
  Rng rng(55);
  std::vector<float> data(dims.count());
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1e4, 1e4));
  Params params;
  params.abs_error_bound = 1.0;
  const auto recon = decompress(compress(data, dims, params));
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, ConstantFieldNearlyFree) {
  const Dims dims = Dims::d3(32, 32, 32);
  std::vector<float> data(dims.count(), 42.0f);
  Params params;
  params.abs_error_bound = 0.001;
  Stats stats;
  const auto bytes = compress(data, dims, params, &stats);
  EXPECT_LT(stats.bit_rate, 0.2);
  const auto recon = decompress(bytes);
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, ExtremeValuesBecomeUnpredictableNotWrong) {
  const Dims dims = Dims::d3(16, 16, 16);
  auto data = smooth_field_3d(dims, 56);
  data[100] = 1e30f;  // a spike far outside the quantization range
  data[2000] = -1e30f;
  Params params;
  params.abs_error_bound = 0.01;
  Stats stats;
  const auto recon = decompress(compress(data, dims, params, &stats));
  EXPECT_GT(stats.unpredictable_points, 0u);
  EXPECT_FLOAT_EQ(recon[100], 1e30f);  // stored verbatim
  EXPECT_FLOAT_EQ(recon[2000], -1e30f);
  EXPECT_LE(max_abs_error(data, recon), params.abs_error_bound * (1 + 1e-9));
}

TEST(Sz, RegressionToggleAffectsStream) {
  const Dims dims = Dims::d3(24, 24, 24);
  const auto data = smooth_field_3d(dims, 57);
  Params with_reg, without_reg;
  with_reg.abs_error_bound = without_reg.abs_error_bound = 0.05;
  without_reg.regression = false;
  Stats stats_with, stats_without;
  const auto a = compress(data, dims, with_reg, &stats_with);
  const auto b = compress(data, dims, without_reg, &stats_without);
  EXPECT_EQ(stats_without.regression_blocks, 0u);
  // Both decode within bound regardless.
  EXPECT_LE(max_abs_error(data, decompress(a)), 0.05 * (1 + 1e-9));
  EXPECT_LE(max_abs_error(data, decompress(b)), 0.05 * (1 + 1e-9));
}

TEST(Sz, LosslessStageToggle) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth_field_3d(dims, 58);
  Params packed, raw;
  packed.abs_error_bound = raw.abs_error_bound = 0.05;
  raw.lossless = false;
  const auto a = compress(data, dims, packed);
  const auto b = compress(data, dims, raw);
  EXPECT_LE(a.size(), b.size());
  EXPECT_EQ(decompress(a), decompress(b));
}

TEST(Sz, DeterministicOutput) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth_field_3d(dims, 59);
  Params params;
  params.abs_error_bound = 0.1;
  EXPECT_EQ(compress(data, dims, params), compress(data, dims, params));
}

TEST(Sz, InvalidInputsRejected) {
  Params params;
  EXPECT_THROW(compress({}, Dims::d1(0), params), InvalidArgument);
  const std::vector<float> data(10, 1.0f);
  EXPECT_THROW(compress(data, Dims::d1(11), params), InvalidArgument);
  params.abs_error_bound = -1.0;
  EXPECT_THROW(compress(data, Dims::d1(10), params), InvalidArgument);
}

TEST(Sz, CorruptStreamThrows) {
  const Dims dims = Dims::d3(8, 8, 8);
  const auto data = smooth_field_3d(dims, 60);
  Params params;
  params.abs_error_bound = 0.1;
  auto bytes = compress(data, dims, params);
  EXPECT_THROW(decompress(std::span<const std::uint8_t>(bytes.data(), 3)), FormatError);
  std::vector<std::uint8_t> empty;
  EXPECT_THROW(decompress(empty), FormatError);
}

TEST(SzReference, BlockLocalReconstructionMatchesOracle) {
  // Ragged 3-D, 2-D and 1-D shapes (every extent leaves a partial block).
  // A smooth field on an x ramp, where both predictors win blocks; the same
  // with NaN and +-Inf, which quantize as unpredictable; and plateaus,
  // whose stream the LZSS stage shrinks. The pw_rel field carries exact
  // zeros and both signs instead.
  const float inf = std::numeric_limits<float>::infinity();
  ThreadPool pool2(2), pool4(4);
  for (const Dims& dims : {Dims::d3(37, 29, 23), Dims::d2(45, 17), Dims::d1(1001)}) {
    std::vector<float> smooth = smooth_field_3d(dims, 71);
    std::vector<float> plateaus(smooth.size());
    for (std::size_t i = 0; i < smooth.size(); ++i) {
      plateaus[i] = 40.0f * std::floor(smooth[i] / 40.0f);
      smooth[i] += 2.0f * static_cast<float>(i % dims.nx);
    }
    std::vector<float> nonfinite = smooth;
    for (std::size_t i = 0; i < nonfinite.size(); ++i) {
      if (i % 97 == 3) nonfinite[i] = std::numeric_limits<float>::quiet_NaN();
      if (i % 89 == 5) nonfinite[i] = inf;
      if (i % 83 == 7) nonfinite[i] = -inf;
    }
    std::vector<float> signed_zeros = smooth;
    for (std::size_t i = 0; i < signed_zeros.size(); i += 53) signed_zeros[i] = 0.0f;
    for (ThreadPool* pool : std::initializer_list<ThreadPool*>{nullptr, &pool2, &pool4}) {
      const std::string where = dims.to_string() + " pool " +
                                std::to_string(pool ? pool->size() : 0);
      for (const bool regression : {true, false}) {
        for (const double bound : {1e-3, 0.5}) {
          Params params;
          params.abs_error_bound = bound;
          params.regression = regression;
          for (const std::vector<float>* data : {&smooth, &nonfinite, &plateaus}) {
            EXPECT_EQ(compress(*data, dims, params, nullptr, pool),
                      test::sz_compress_reference(*data, dims, params))
                << where << " abs " << bound << " regression " << regression;
          }
        }
        PwRelParams pw;
        pw.pw_rel_bound = 1e-2;
        pw.regression = regression;
        EXPECT_EQ(compress_pwrel(signed_zeros, dims, pw, nullptr, pool),
                  test::sz_compress_pwrel_reference(signed_zeros, dims, pw))
            << where << " pw_rel regression " << regression;
      }
    }
  }
}

TEST(Sz, DefaultBlockEdges) {
  EXPECT_EQ(default_block_edge(1), 128u);
  EXPECT_EQ(default_block_edge(2), 16u);
  EXPECT_EQ(default_block_edge(3), 8u);
}

/// Property sweep: the ABS bound holds across bounds and shapes.
class SzBoundSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SzBoundSweep, ErrorBoundHolds) {
  const auto [bound, shape] = GetParam();
  Dims dims;
  switch (shape) {
    case 0: dims = Dims::d1(4096); break;
    case 1: dims = Dims::d2(64, 64); break;
    default: dims = Dims::d3(16, 16, 16); break;
  }
  Rng rng(100 + shape);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(50.0 * std::sin(0.05 * static_cast<double>(i)) +
                                 rng.normal());
  }
  Params params;
  params.abs_error_bound = bound;
  const auto recon = decompress(compress(data, dims, params));
  EXPECT_LE(max_abs_error(data, recon), bound * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    BoundsAndShapes, SzBoundSweep,
    ::testing::Combine(::testing::Values(1e-4, 1e-2, 0.5, 10.0),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace cosmo::sz
