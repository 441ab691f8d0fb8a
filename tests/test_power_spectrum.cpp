#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "analysis/power_spectrum.hpp"
#include "cosmo/nyx_synth.hpp"
#include "random/rng.hpp"

#include "power_spectrum_reference.hpp"

namespace cosmo::analysis {
namespace {

TEST(PowerSpectrum, SingleModeLandsInRightBin) {
  const Dims dims = Dims::d3(32, 32, 32);
  std::vector<float> field(dims.count());
  const double k0 = 6.0;  // plane wave along x with frequency 6
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x) {
        field[dims.index(x, y, z)] = static_cast<float>(
            std::cos(2.0 * std::numbers::pi * k0 * static_cast<double>(x) / 32.0));
      }
    }
  }
  const auto pk = power_spectrum(field, dims);
  // The bin containing k = 6 should dominate every other bin.
  double peak_power = 0.0, peak_k = 0.0, other_max = 0.0;
  for (const auto& bin : pk) {
    if (bin.power > peak_power) {
      other_max = std::max(other_max, peak_power);
      peak_power = bin.power;
      peak_k = bin.k;
    } else {
      other_max = std::max(other_max, bin.power);
    }
  }
  EXPECT_NEAR(peak_k, k0, 1.0);
  EXPECT_GT(peak_power, other_max * 100.0);
}

TEST(PowerSpectrum, WhiteNoiseIsFlat) {
  const Dims dims = Dims::d3(32, 32, 32);
  Rng rng(121);
  std::vector<float> field(dims.count());
  for (auto& v : field) v = static_cast<float>(rng.normal());
  const auto pk = power_spectrum(field, dims, 8);
  ASSERT_GE(pk.size(), 4u);
  // All bins within a factor ~2 of the mean (statistical scatter only).
  double mean = 0.0;
  for (const auto& bin : pk) mean += bin.power;
  mean /= static_cast<double>(pk.size());
  for (const auto& bin : pk) {
    EXPECT_GT(bin.power, mean * 0.5);
    EXPECT_LT(bin.power, mean * 2.0);
  }
}

TEST(PowerSpectrum, MeanOffsetIgnored) {
  const Dims dims = Dims::d3(16, 16, 16);
  Rng rng(122);
  std::vector<float> a(dims.count()), b(dims.count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.normal());
    b[i] = a[i] + 1000.0f;  // huge DC offset
  }
  const auto pk_a = power_spectrum(a, dims);
  const auto pk_b = power_spectrum(b, dims);
  ASSERT_EQ(pk_a.size(), pk_b.size());
  for (std::size_t i = 0; i < pk_a.size(); ++i) {
    EXPECT_NEAR(pk_b[i].power / pk_a[i].power, 1.0, 1e-3);
  }
}

TEST(PowerSpectrum, GeneratedNyxDeltaFollowsInputSpectrumShape) {
  NyxConfig config;
  config.dim = 64;
  config.knee = 8.0;
  const Field delta = generate_nyx_delta(config);
  const auto pk = power_spectrum(delta.data, delta.dims, 16);
  ASSERT_GE(pk.size(), 8u);
  // The input template rises to the knee then falls: the spectrum at very
  // high k must sit well below the peak.
  double peak = 0.0;
  for (const auto& bin : pk) peak = std::max(peak, bin.power);
  EXPECT_GT(peak, pk.back().power * 3.0);
  // And the first bin (largest scales) should not be the global peak of a
  // k^1 rising template.
  EXPECT_LT(pk.front().power, peak);
}

TEST(PkRatio, IdenticalFieldsGiveUnity) {
  const Dims dims = Dims::d3(16, 16, 16);
  Rng rng(123);
  std::vector<float> field(dims.count());
  for (auto& v : field) v = static_cast<float>(rng.normal());
  const PkRatio r = pk_ratio(field, field, dims);
  EXPECT_EQ(r.max_deviation, 0.0);
  for (const double ratio : r.ratio) EXPECT_DOUBLE_EQ(ratio, 1.0);
  EXPECT_TRUE(pk_acceptable(r, 0.01));
}

TEST(PkRatio, SmallNoiseSmallDeviation) {
  const Dims dims = Dims::d3(32, 32, 32);
  Rng rng(124);
  std::vector<float> orig(dims.count()), recon(dims.count());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    orig[i] = static_cast<float>(100.0 * std::sin(0.3 * static_cast<double>(i % 32)));
    recon[i] = orig[i] + static_cast<float>(rng.normal(0.0, 1e-4));
  }
  const PkRatio r = pk_ratio(orig, recon, dims, 0.5);
  EXPECT_TRUE(pk_acceptable(r, 0.01));
}

TEST(PkRatio, AmplitudeScalingDetected) {
  const Dims dims = Dims::d3(16, 16, 16);
  Rng rng(125);
  std::vector<float> orig(dims.count()), recon(dims.count());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    orig[i] = static_cast<float>(rng.normal());
    recon[i] = orig[i] * 1.05f;  // 5% amplitude error -> ~10% power error
  }
  const PkRatio r = pk_ratio(orig, recon, dims);
  EXPECT_FALSE(pk_acceptable(r, 0.01));
  EXPECT_NEAR(r.max_deviation, 0.1025, 0.01);
}

TEST(PkRatio, KFractionLimitsEvaluatedRange) {
  const Dims dims = Dims::d3(32, 32, 32);
  Rng rng(126);
  std::vector<float> orig(dims.count());
  for (auto& v : orig) v = static_cast<float>(rng.normal());
  const PkRatio full = pk_ratio(orig, orig, dims, 1.0);
  const PkRatio half = pk_ratio(orig, orig, dims, 0.5);
  EXPECT_LT(half.k.size(), full.k.size());
  EXPECT_LE(half.k.back(), 8.0 + 1.0);  // k_nyq/2 = 8
}

/// Expects \p got to match the complex-grid oracle: the same bins with the
/// same mode counts, k and power within 1e-12 relative. A bin's power is
/// compared relative to at least \p power_floor.
void expect_matches_oracle(const std::vector<PkBin>& got, const std::vector<PkBin>& want,
                           const std::string& what, double power_floor = 0.0) {
  constexpr double kRel = 1e-12;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(got[b].modes, want[b].modes) << what << " bin " << b;
    EXPECT_NEAR(got[b].k, want[b].k, kRel * want[b].k) << what << " bin " << b;
    EXPECT_NEAR(got[b].power, want[b].power, kRel * std::max(want[b].power, power_floor))
        << what << " bin " << b;
  }
}

TEST(PowerSpectrum, RealInputMatchesComplexGridOracleOnNyxFields) {
  ThreadPool pool(4);
  for (const std::size_t dim : {16u, 32u, 64u}) {
    NyxConfig config;
    config.dim = dim;
    config.seed = 17;
    const auto nyx = generate_nyx(config);
    for (const auto& v : nyx.variables) {
      const Field& f = v.field;
      const auto want = test::power_spectrum_reference(f.data, f.dims);
      const std::string what = f.name + " at " + std::to_string(dim);
      expect_matches_oracle(power_spectrum(f.data, f.dims), want, what);
      expect_matches_oracle(power_spectrum(f.data, f.dims, 0, &pool), want, what + " pooled");
    }
  }
}

TEST(PowerSpectrum, RealInputMatchesComplexGridOracleOnFlatGrid) {
  // Unequal extents: the half grid is 17 x 16 x 8, and the bins read kx
  // against the nx/2 Nyquist.
  const Dims dims = Dims::d3(32, 16, 8);
  Rng rng(77);
  std::vector<float> field(dims.count());
  for (auto& v : field) v = static_cast<float>(rng.normal() * 3.0 + 10.0);
  for (const std::size_t nbins : {0u, 5u, 16u}) {
    expect_matches_oracle(power_spectrum(field, dims, nbins),
                          test::power_spectrum_reference(field, dims, nbins),
                          "nbins " + std::to_string(nbins));
  }
}

TEST(PowerSpectrum, RealInputMatchesComplexGridOracleOnSingleModes) {
  // Plane waves along each axis, a diagonal and a mode at the Nyquist
  // plane kx = nx/2.
  const Dims dims = Dims::d3(16, 16, 16);
  const std::size_t modes[][3] = {{3, 0, 0}, {0, 5, 0}, {0, 0, 2}, {2, 3, 4}, {8, 1, 0}};
  for (const auto& m : modes) {
    std::vector<float> field(dims.count());
    for (std::size_t z = 0; z < dims.nz; ++z) {
      for (std::size_t y = 0; y < dims.ny; ++y) {
        for (std::size_t x = 0; x < dims.nx; ++x) {
          const double phase = 2.0 * std::numbers::pi *
                               static_cast<double>(m[0] * x + m[1] * y + m[2] * z) / 16.0;
          field[dims.index(x, y, z)] = static_cast<float>(std::cos(phase) + 0.5);
        }
      }
    }
    // Off the mode, a bin holds only the float rounding of the cosines,
    // 1e-19 of the peak or less, which neither transform resolves to 12
    // digits; those bins must agree to 1e-12 of the peak.
    const auto want = test::power_spectrum_reference(field, dims);
    double peak = 0.0;
    for (const PkBin& bin : want) peak = std::max(peak, bin.power);
    expect_matches_oracle(power_spectrum(field, dims), want,
                          "mode " + std::to_string(m[0]) + std::to_string(m[1]) +
                              std::to_string(m[2]),
                          peak);
  }
}

TEST(PowerSpectrum, InvalidInputsRejected) {
  const std::vector<float> small(8, 0.0f);
  EXPECT_THROW(power_spectrum(small, Dims::d1(8)), InvalidArgument);
  EXPECT_THROW(power_spectrum(small, Dims::d3(2, 2, 3)), InvalidArgument);
}

}  // namespace
}  // namespace cosmo::analysis
