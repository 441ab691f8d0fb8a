#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "random/rng.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::sz {
namespace {

BlockRange full_block(const Dims& dims) {
  return {0, dims.nx, 0, dims.ny, 0, dims.nz};
}

TEST(Lorenzo, FirstElementPredictsZero) {
  const Dims dims = Dims::d3(4, 4, 4);
  std::vector<float> data(dims.count(), 5.0f);
  EXPECT_FLOAT_EQ(lorenzo_predict(data, dims, full_block(dims), 0, 0, 0), 0.0f);
}

TEST(Lorenzo, Rank1UsesLeftNeighbor) {
  const Dims dims = Dims::d1(8);
  const std::vector<float> data = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto blk = full_block(dims);
  EXPECT_FLOAT_EQ(lorenzo_predict(data, dims, blk, 3, 0, 0), 3.0f);
}

TEST(Lorenzo, ExactForLinearField3d) {
  // The order-1 Lorenzo stencil reproduces any trilinear-free affine field
  // f = a x + b y + c z + d exactly (away from block borders).
  const Dims dims = Dims::d3(6, 6, 6);
  std::vector<float> data(dims.count());
  for (std::size_t z = 0; z < 6; ++z) {
    for (std::size_t y = 0; y < 6; ++y) {
      for (std::size_t x = 0; x < 6; ++x) {
        data[dims.index(x, y, z)] =
            2.0f * static_cast<float>(x) - 3.0f * static_cast<float>(y) +
            0.5f * static_cast<float>(z) + 7.0f;
      }
    }
  }
  const auto blk = full_block(dims);
  for (std::size_t z = 1; z < 6; ++z) {
    for (std::size_t y = 1; y < 6; ++y) {
      for (std::size_t x = 1; x < 6; ++x) {
        EXPECT_NEAR(lorenzo_predict(data, dims, blk, x, y, z),
                    data[dims.index(x, y, z)], 1e-4);
      }
    }
  }
}

TEST(Lorenzo, ExactForBilinearField2d) {
  const Dims dims = Dims::d2(8, 8);
  std::vector<float> data(dims.count());
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      data[dims.index(x, y, 0)] =
          1.5f * static_cast<float>(x) + 2.5f * static_cast<float>(y) - 3.0f;
    }
  }
  const auto blk = full_block(dims);
  for (std::size_t y = 1; y < 8; ++y) {
    for (std::size_t x = 1; x < 8; ++x) {
      EXPECT_NEAR(lorenzo_predict(data, dims, blk, x, y, 0), data[dims.index(x, y, 0)],
                  1e-4);
    }
  }
}

TEST(Lorenzo, BlockIndependence) {
  // Neighbors outside the block must be treated as zero.
  const Dims dims = Dims::d1(8);
  const std::vector<float> data = {9, 9, 9, 9, 1, 2, 3, 4};
  BlockRange blk{4, 8, 0, 1, 0, 1};
  EXPECT_FLOAT_EQ(lorenzo_predict(data, dims, blk, 4, 0, 0), 0.0f);  // not 9
  EXPECT_FLOAT_EQ(lorenzo_predict(data, dims, blk, 5, 0, 0), 1.0f);
}

TEST(Regression, RecoversExactLinearModel) {
  const Dims dims = Dims::d3(8, 8, 8);
  std::vector<float> data(dims.count());
  for (std::size_t z = 0; z < 8; ++z) {
    for (std::size_t y = 0; y < 8; ++y) {
      for (std::size_t x = 0; x < 8; ++x) {
        data[dims.index(x, y, z)] = 1.25f * static_cast<float>(x) -
                                    0.75f * static_cast<float>(y) +
                                    2.0f * static_cast<float>(z) + 10.0f;
      }
    }
  }
  const auto blk = full_block(dims);
  const RegressionCoef coef = fit_regression(data, dims, blk);
  EXPECT_NEAR(coef.a, 1.25f, 1e-4);
  EXPECT_NEAR(coef.b, -0.75f, 1e-4);
  EXPECT_NEAR(coef.c, 2.0f, 1e-4);
  EXPECT_NEAR(coef.d, 10.0f, 1e-3);
  EXPECT_NEAR(regression_error_estimate(data, dims, blk, coef), 0.0, 1e-2);
}

TEST(Regression, PartialBlockFit) {
  const Dims dims = Dims::d3(10, 10, 10);
  std::vector<float> data(dims.count());
  for (std::size_t z = 0; z < 10; ++z) {
    for (std::size_t y = 0; y < 10; ++y) {
      for (std::size_t x = 0; x < 10; ++x) {
        data[dims.index(x, y, z)] = static_cast<float>(x + y + z);
      }
    }
  }
  BlockRange blk{8, 10, 8, 10, 8, 10};  // 2x2x2 corner block
  const RegressionCoef coef = fit_regression(data, dims, blk);
  EXPECT_NEAR(coef.a, 1.0f, 1e-4);
  EXPECT_NEAR(coef.b, 1.0f, 1e-4);
  EXPECT_NEAR(coef.c, 1.0f, 1e-4);
  EXPECT_NEAR(coef.d, 24.0f, 1e-3);  // f(8,8,8)
}

TEST(Regression, ConstantFieldGivesZeroSlopes) {
  const Dims dims = Dims::d3(4, 4, 4);
  std::vector<float> data(dims.count(), 3.5f);
  const RegressionCoef coef = fit_regression(data, dims, full_block(dims));
  EXPECT_NEAR(coef.a, 0.0f, 1e-6);
  EXPECT_NEAR(coef.b, 0.0f, 1e-6);
  EXPECT_NEAR(coef.c, 0.0f, 1e-6);
  EXPECT_NEAR(coef.d, 3.5f, 1e-5);
}

TEST(Regression, ErrorEstimateRanksPredictors) {
  // A noisy ramp: regression should beat Lorenzo-from-zero on a fresh block
  // since Lorenzo's first row predicts 0.
  const Dims dims = Dims::d3(8, 8, 8);
  std::vector<float> data(dims.count());
  Rng rng(41);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1000.0f + static_cast<float>(i % 8) + 0.1f * static_cast<float>(rng.normal());
  }
  const auto blk = full_block(dims);
  const auto coef = fit_regression(data, dims, blk);
  EXPECT_LT(regression_error_estimate(data, dims, blk, coef),
            lorenzo_error_estimate(data, dims, blk));
}

// ---------- Quantizer ----------

TEST(Quantizer, ReconstructionWithinBound) {
  const double eb = 0.01;
  const Quantizer q(eb);
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float original = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float predicted = original + static_cast<float>(rng.uniform(-5.0, 5.0));
    const auto result = q.quantize(original, predicted);
    if (result.code != 0) {
      EXPECT_LE(std::fabs(result.reconstructed - original), eb + 1e-12);
      // Decoder path must agree bit-for-bit.
      EXPECT_FLOAT_EQ(q.reconstruct(result.code, predicted), result.reconstructed);
    }
  }
}

TEST(Quantizer, PerfectPredictionGivesCenterCode) {
  const Quantizer q(0.5);
  const auto result = q.quantize(10.0f, 10.0f);
  EXPECT_EQ(result.code, q.radius());
  EXPECT_FLOAT_EQ(result.reconstructed, 10.0f);
}

TEST(Quantizer, HugeErrorIsUnpredictable) {
  const Quantizer q(1e-6);
  const auto result = q.quantize(1e6f, 0.0f);
  EXPECT_EQ(result.code, 0u);
}

TEST(Quantizer, NonFiniteInputIsUnpredictable) {
  // A NaN on either side, or Inf - Inf, makes the scaled error NaN; a lone
  // Inf makes it infinite. Each is code 0 and never reaches the integer
  // cast.
  const Quantizer q(1e-3);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(q.quantize(nan, 0.0f).code, 0u);
  EXPECT_EQ(q.quantize(1.0f, nan).code, 0u);
  EXPECT_EQ(q.quantize(inf, inf).code, 0u);
  EXPECT_EQ(q.quantize(-inf, -inf).code, 0u);
  EXPECT_EQ(q.quantize(inf, 0.0f).code, 0u);
  EXPECT_EQ(q.quantize(0.0f, -inf).code, 0u);
}

TEST(Quantizer, CodeSpaceEdges) {
  const Quantizer q(1.0, 8);
  // diff = 14 -> scaled 7 -> within radius 8.
  EXPECT_NE(q.quantize(14.0f, 0.0f).code, 0u);
  // diff = 16 -> scaled 8 -> outside.
  EXPECT_EQ(q.quantize(16.0f, 0.0f).code, 0u);
}

TEST(Quantizer, InvalidParamsRejected) {
  EXPECT_THROW(Quantizer(0.0), InvalidArgument);
  EXPECT_THROW(Quantizer(-1.0), InvalidArgument);
  EXPECT_THROW(Quantizer(1.0, 1), InvalidArgument);
}

}  // namespace
}  // namespace cosmo::sz
