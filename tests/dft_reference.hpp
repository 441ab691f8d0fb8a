/// \file dft_reference.hpp
/// \brief Test oracle for the FFT: the naive O(N^2) discrete Fourier
/// transform, with inverse scaled by 1/N like fft_1d.
#pragma once

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "fft/fft.hpp"

namespace cosmo::test {

inline std::vector<cplx> dft_reference(std::span<const cplx> data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<cplx> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang =
          sign * 2.0 * std::numbers::pi * static_cast<double>(k * t) / static_cast<double>(n);
      acc += data[t] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

}  // namespace cosmo::test
