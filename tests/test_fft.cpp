#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dft_reference.hpp"
#include "fft/fft.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

constexpr double kTol = 1e-9;

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(31);
  for (const std::size_t n : {2u, 4u, 8u, 32u, 128u}) {
    std::vector<cplx> data(n);
    for (auto& x : data) x = cplx(rng.normal(), rng.normal());
    auto fast = data;
    fft_1d(fast, /*inverse=*/false);
    const auto slow = test::dft_reference(data, /*inverse=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-8) << "n=" << n << " i=" << i;
      EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-8);
    }
  }
}

TEST(Fft, InverseRecoversInput1d) {
  Rng rng(32);
  std::vector<cplx> data(256);
  for (auto& x : data) x = cplx(rng.normal(), rng.normal());
  auto work = data;
  fft_1d(work, false);
  fft_1d(work, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(work[i].real(), data[i].real(), kTol);
    EXPECT_NEAR(work[i].imag(), data[i].imag(), kTol);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<cplx> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(tone * i) /
                         static_cast<double>(n);
    data[i] = cplx(std::cos(phase), 0.0);
  }
  fft_1d(data, false);
  // cos splits into bins +tone and -tone with amplitude n/2 each.
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(data[k]);
    if (k == tone || k == n - tone) {
      EXPECT_NEAR(mag, n / 2.0, 1e-8);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-8);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(33);
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = cplx(rng.normal(), rng.normal());
    time_energy += std::norm(x);
  }
  fft_1d(data, false);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, LinearityHolds) {
  Rng rng(34);
  const std::size_t n = 64;
  std::vector<cplx> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = cplx(rng.normal(), 0.0);
    b[i] = cplx(rng.normal(), 0.0);
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  fft_1d(a, false);
  fft_1d(b, false);
  fft_1d(sum, false);
  for (std::size_t i = 0; i < n; ++i) {
    const cplx expected = 2.0 * a[i] + 3.0 * b[i];
    EXPECT_NEAR(sum[i].real(), expected.real(), 1e-8);
    EXPECT_NEAR(sum[i].imag(), expected.imag(), 1e-8);
  }
}

TEST(Fft, NonPow2Rejected) {
  std::vector<cplx> data(6);
  EXPECT_THROW(fft_1d(data, false), InvalidArgument);
}

TEST(Fft3d, InverseRecoversInput) {
  Rng rng(35);
  const Dims dims = Dims::d3(8, 4, 16);
  std::vector<cplx> data(dims.count());
  for (auto& x : data) x = cplx(rng.normal(), rng.normal());
  auto work = data;
  fft_3d(work, dims, false);
  fft_3d(work, dims, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(work[i].real(), data[i].real(), kTol);
    EXPECT_NEAR(work[i].imag(), data[i].imag(), kTol);
  }
}

TEST(Fft3d, PlaneWaveLandsInOneMode) {
  const Dims dims = Dims::d3(8, 8, 8);
  std::vector<cplx> data(dims.count());
  const std::size_t kx = 2, ky = 1, kz = 3;
  for (std::size_t z = 0; z < 8; ++z) {
    for (std::size_t y = 0; y < 8; ++y) {
      for (std::size_t x = 0; x < 8; ++x) {
        const double phase = 2.0 * std::numbers::pi *
                             (static_cast<double>(kx * x + ky * y + kz * z)) / 8.0;
        data[dims.index(x, y, z)] = cplx(std::cos(phase), std::sin(phase));
      }
    }
  }
  fft_3d(data, dims, false);
  for (std::size_t z = 0; z < 8; ++z) {
    for (std::size_t y = 0; y < 8; ++y) {
      for (std::size_t x = 0; x < 8; ++x) {
        const double mag = std::abs(data[dims.index(x, y, z)]);
        if (x == kx && y == ky && z == kz) {
          EXPECT_NEAR(mag, static_cast<double>(dims.count()), 1e-6);
        } else {
          EXPECT_NEAR(mag, 0.0, 1e-6);
        }
      }
    }
  }
}

TEST(Fft3d, RealInputHalfSpectrumMatchesComplexPath) {
  // Odd row counts (one unpaired row), flat extents and unequal extents
  // exercise the pencil pairing and the half-grid y/z passes.
  Rng rng(36);
  for (const Dims dims : {Dims::d3(4, 4, 4), Dims::d3(8, 4, 2), Dims::d3(16, 1, 1),
                          Dims::d3(2, 8, 1), Dims::d3(1, 4, 8), Dims::d3(32, 16, 8)}) {
    std::vector<float> real_data(dims.count());
    for (auto& v : real_data) v = static_cast<float>(rng.normal());
    const double offset = 0.25;
    std::vector<cplx> complex_data(dims.count());
    for (std::size_t i = 0; i < real_data.size(); ++i) {
      complex_data[i] = cplx(real_data[i] - offset, 0.0);
    }
    fft_3d(complex_data, dims, false);
    ThreadPool pool(3);
    const auto half = fft_3d_r2c(real_data, dims, offset);
    const std::size_t hx = dims.nx / 2 + 1;
    ASSERT_EQ(half.size(), hx * dims.ny * dims.nz);
    EXPECT_EQ(fft_3d_r2c(real_data, dims, offset, &pool), half);
    for (std::size_t z = 0; z < dims.nz; ++z) {
      for (std::size_t y = 0; y < dims.ny; ++y) {
        for (std::size_t x = 0; x < hx; ++x) {
          const cplx want = complex_data[dims.index(x, y, z)];
          const cplx got = half[x + hx * (y + dims.ny * z)];
          EXPECT_NEAR(got.real(), want.real(), 1e-9);
          EXPECT_NEAR(got.imag(), want.imag(), 1e-9);
        }
      }
    }
  }
}

TEST(Fft3d, SizeMismatchRejected) {
  std::vector<cplx> data(7);
  EXPECT_THROW(fft_3d(data, Dims::d3(2, 2, 2), false), InvalidArgument);
}

}  // namespace
}  // namespace cosmo
