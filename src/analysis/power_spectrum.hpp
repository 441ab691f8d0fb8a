/// \file power_spectrum.hpp
/// \brief Matter power spectrum P(k) and the pk-ratio acceptance test.
///
/// Paper Metric 3b: "The Fourier transform of xi(r) is called the matter
/// power spectrum P(k)". Fig. 5 plots, per field, the ratio of the spectrum
/// of reconstructed data to that of the original, with the acceptance band
/// 1 +/- 1%. This module computes the radially binned spectrum with our FFT
/// and implements exactly that test.
#pragma once

#include <span>
#include <vector>

#include "common/field.hpp"
#include "common/thread_pool.hpp"

namespace cosmo::analysis {

/// One radial bin of the spectrum.
struct PkBin {
  double k = 0.0;      ///< mean wavenumber of the bin (grid frequency units)
  double power = 0.0;  ///< mean |F|^2 over modes in the bin
  std::size_t modes = 0;
};

/// Radially binned power spectrum of a 3-D scalar field. \p nbins == 0
/// selects nx/2 bins (up to the Nyquist frequency). The field is real, so
/// the transform is the real-input fft_3d_r2c: only the kx >= 0 half grid
/// ((nx/2 + 1) * ny * nz complex values) is built and binned, each mode with
/// 0 < kx < nx/2 weighted twice for its Hermitian mirror. Threads on
/// \p pool: the FFT is pencil-parallel and the radial binning accumulates
/// into per-z-slice partials reduced in fixed z order, so the result is
/// bitwise identical for any thread count.
std::vector<PkBin> power_spectrum(std::span<const float> values, const Dims& dims,
                                  std::size_t nbins = 0, ThreadPool* pool = nullptr);

/// Per-bin ratio P_reconstructed / P_original, aligned on the original's
/// binning; bins with no power in the original are skipped (ratio = 1).
struct PkRatio {
  std::vector<double> k;
  std::vector<double> ratio;
  double max_deviation = 0.0;  ///< max |ratio - 1| over evaluated bins
};

/// Computes the Fig. 5 curve for one field.
/// \p k_fraction restricts the test to k <= k_fraction * k_nyquist, since
/// the paper's acceptance reads the physically meaningful scales.
PkRatio pk_ratio(std::span<const float> original, std::span<const float> reconstructed,
                 const Dims& dims, double k_fraction = 1.0, ThreadPool* pool = nullptr);

/// pk_ratio against a precomputed original-field spectrum (the default-nbins
/// power_spectrum of the original). The original FFT is the expensive half
/// of every ratio and never changes across candidates, so the optimizer and
/// the pipeline compute it once per field and reuse it here.
PkRatio pk_ratio(const std::vector<PkBin>& pk_original, std::span<const float> reconstructed,
                 const Dims& dims, double k_fraction = 1.0, ThreadPool* pool = nullptr);

/// The paper's acceptance test: every evaluated bin within 1 +/- tolerance
/// (tolerance = 0.01 for the 1% band).
bool pk_acceptable(const PkRatio& r, double tolerance = 0.01);

}  // namespace cosmo::analysis
