/// \file fft.hpp
/// \brief Iterative radix-2 FFT, 1-D and 3-D, for power-of-two sizes.
///
/// Substrate for the matter power spectrum P(k) analysis (paper Metric 3b,
/// through the real-input fft_3d_r2c) and for generating Gaussian random
/// fields with a prescribed spectrum in the synthetic Nyx generator
/// (fft_3d). Unnormalized forward transform; inverse
/// divides by N (so inverse(forward(x)) == x).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/field.hpp"
#include "common/thread_pool.hpp"

namespace cosmo {

using cplx = std::complex<double>;

/// True when \p n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// In-place 1-D FFT of length data.size() (must be a power of two).
/// \p inverse selects the inverse transform (includes the 1/N scale).
/// Twiddle factors come from a process-wide table cached per transform
/// size, so repeated transforms of one size (the fft_3d pencil loops)
/// never recompute trigonometry.
void fft_1d(std::span<cplx> data, bool inverse);

/// In-place 3-D FFT over a row-major nx*ny*nz array (each extent a power
/// of two). Transforms along all three axes; the independent pencils of
/// each pass run in parallel on \p pool, and the strided y/z passes move
/// data through cache-blocked transpose tiles. Each axis's twiddle table is
/// looked up once per transform, not once per pencil. Results are bitwise
/// identical for any thread count (each pencil's arithmetic is unchanged).
void fft_3d(std::vector<cplx>& data, const Dims& dims, bool inverse,
            ThreadPool* pool = nullptr);

/// Forward 3-D FFT of the real field values[i] - \p offset, returned as
/// the half spectrum: the (nx/2 + 1) * ny * nz modes with kx >= 0, row-major
/// with rows of nx/2 + 1. The rest follow by Hermitian symmetry,
/// F(-k) = conj(F(k)). Two real x-rows share one complex pencil, and the y/z
/// passes run on the half grid, so the transform does about half the work
/// and holds about half the memory of fft_3d on a widened copy. Agrees
/// with that path to rounding, and is bitwise identical for any thread
/// count on \p pool.
std::vector<cplx> fft_3d_r2c(std::span<const float> values, const Dims& dims,
                             double offset = 0.0, ThreadPool* pool = nullptr);

/// Number of distinct transform sizes the twiddle cache currently holds
/// (observability hook for tests).
std::size_t& fft_twiddle_cache_entries();

}  // namespace cosmo
