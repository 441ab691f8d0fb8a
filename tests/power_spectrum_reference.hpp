/// \file power_spectrum_reference.hpp
/// \brief Test oracle for analysis::power_spectrum: the full complex-grid
/// path. The field, minus its mean, is widened into an nx*ny*nz complex
/// grid, transformed with fft_3d, and every mode of the full grid is
/// binned by |k|. The library's real-input path bins only the kx >= 0 half
/// and weights mirrored modes twice; it must agree with this oracle to
/// rounding, with equal modes per bin.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "analysis/power_spectrum.hpp"
#include "fft/fft.hpp"

namespace cosmo::test {

inline std::vector<analysis::PkBin> power_spectrum_reference(std::span<const float> values,
                                                             const Dims& dims,
                                                             std::size_t nbins = 0) {
  if (nbins == 0) nbins = dims.nx / 2;
  const auto freq = [](std::size_t i, std::size_t n) {
    return i <= n / 2 ? static_cast<double>(i)
                      : static_cast<double>(i) - static_cast<double>(n);
  };
  // The mean in the library's order: per-z-slice sums added in z order.
  const std::size_t slice = dims.nx * dims.ny;
  double mean = 0.0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    double s = 0.0;
    for (std::size_t i = z * slice; i < (z + 1) * slice; ++i) s += values[i];
    mean += s;
  }
  mean /= static_cast<double>(values.size());
  std::vector<cplx> grid(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) grid[i] = cplx(values[i] - mean, 0.0);
  fft_3d(grid, dims, /*inverse=*/false);

  const double k_nyq = static_cast<double>(dims.nx) / 2.0;
  const double norm = 1.0 / static_cast<double>(values.size());
  std::vector<analysis::PkBin> bins(nbins);
  std::vector<double> ksum(nbins, 0.0);
  for (std::size_t z = 0; z < dims.nz; ++z) {
    const double kz = freq(z, dims.nz);
    for (std::size_t y = 0; y < dims.ny; ++y) {
      const double ky = freq(y, dims.ny);
      for (std::size_t x = 0; x < dims.nx; ++x) {
        const double kx = freq(x, dims.nx);
        const double k = std::sqrt(kx * kx + ky * ky + kz * kz);
        if (k <= 0.0 || k >= k_nyq) continue;
        const auto b = std::min(
            nbins - 1, static_cast<std::size_t>(k / k_nyq * static_cast<double>(nbins)));
        bins[b].power += std::norm(grid[dims.index(x, y, z)] * norm);
        ksum[b] += k;
        ++bins[b].modes;
      }
    }
  }
  std::vector<analysis::PkBin> out;
  for (std::size_t b = 0; b < nbins; ++b) {
    if (bins[b].modes == 0) continue;
    bins[b].power /= static_cast<double>(bins[b].modes);
    bins[b].k = ksum[b] / static_cast<double>(bins[b].modes);
    out.push_back(bins[b]);
  }
  return out;
}

}  // namespace cosmo::test
