#include "analysis/power_spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "common/telemetry.hpp"
#include "fft/fft.hpp"

namespace cosmo::analysis {

namespace {

double freq(std::size_t i, std::size_t n) {
  const auto s = static_cast<double>(i);
  const auto nn = static_cast<double>(n);
  return i <= n / 2 ? s : s - nn;
}

}  // namespace

std::vector<PkBin> power_spectrum(std::span<const float> values, const Dims& dims,
                                  std::size_t nbins, ThreadPool* pool) {
  TRACE_SPAN("analysis.power_spectrum");
  require(dims.rank() == 3, "power_spectrum: field must be 3-D");
  require(values.size() == dims.count(), "power_spectrum: size mismatch");
  if (nbins == 0) nbins = dims.nx / 2;
  require(nbins >= 2, "power_spectrum: need at least 2 bins");

  // Mean-subtract (the spectrum of fluctuations, not the DC offset).
  // Per-z-slice partial sums reduced in fixed z order: the slice geometry
  // never depends on the thread count, so the mean is bitwise identical to
  // the serial z-major accumulation.
  const std::size_t slice = dims.nx * dims.ny;
  std::vector<double> slice_sum(dims.nz, 0.0);
  parallel_for(pool, dims.nz, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t z = lo; z < hi; ++z) {
      double s = 0.0;
      for (std::size_t i = z * slice; i < (z + 1) * slice; ++i) s += values[i];
      slice_sum[z] = s;
    }
  }, /*min_grain=*/1);
  double mean = 0.0;
  for (const double s : slice_sum) mean += s;
  mean /= static_cast<double>(values.size());
  // The field is real, so its spectrum is Hermitian: only the kx >= 0 half
  // is transformed, and each of its modes with 0 < kx < nx/2 stands for
  // itself and its mirror at -k, which has the same |F|^2 and |k|.
  const std::vector<cplx> half = fft_3d_r2c(values, dims, mean, pool);
  const std::size_t hx = dims.nx / 2 + 1;

  const double k_nyq = static_cast<double>(dims.nx) / 2.0;
  std::vector<PkBin> bins(nbins);
  std::vector<double> ksum(nbins, 0.0);
  const double norm = 1.0 / static_cast<double>(values.size());

  // Radial binning via per-z-slice partial accumulators, again reduced in
  // fixed z order for thread-count-independent floating-point totals.
  struct SliceBins {
    std::vector<double> power, ksum;
    std::vector<std::size_t> modes;
  };
  std::vector<SliceBins> partial(dims.nz);
  parallel_for(pool, dims.nz, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t z = lo; z < hi; ++z) {
      SliceBins& sb = partial[z];
      sb.power.assign(nbins, 0.0);
      sb.ksum.assign(nbins, 0.0);
      sb.modes.assign(nbins, 0);
      const double kz = freq(z, dims.nz);
      for (std::size_t y = 0; y < dims.ny; ++y) {
        const double ky = freq(y, dims.ny);
        const cplx* row = half.data() + hx * (y + dims.ny * z);
        for (std::size_t x = 0; x < hx; ++x) {
          const double kx = static_cast<double>(x);
          const double k = std::sqrt(kx * kx + ky * ky + kz * kz);
          if (k <= 0.0 || k >= k_nyq) continue;
          const auto b = std::min(
              nbins - 1, static_cast<std::size_t>(k / k_nyq * static_cast<double>(nbins)));
          const std::size_t weight = x == 0 || 2 * x == dims.nx ? 1 : 2;
          const double w = static_cast<double>(weight);
          sb.power[b] += w * std::norm(row[x] * norm);
          sb.ksum[b] += w * k;
          sb.modes[b] += weight;
        }
      }
    }
  }, /*min_grain=*/1);
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t b = 0; b < nbins; ++b) {
      bins[b].power += partial[z].power[b];
      ksum[b] += partial[z].ksum[b];
      bins[b].modes += partial[z].modes[b];
    }
  }
  for (std::size_t b = 0; b < nbins; ++b) {
    if (bins[b].modes > 0) {
      bins[b].power /= static_cast<double>(bins[b].modes);
      bins[b].k = ksum[b] / static_cast<double>(bins[b].modes);
    }
  }
  // Drop empty bins.
  std::vector<PkBin> out;
  out.reserve(bins.size());
  for (const auto& b : bins) {
    if (b.modes > 0) out.push_back(b);
  }
  return out;
}

PkRatio pk_ratio(std::span<const float> original, std::span<const float> reconstructed,
                 const Dims& dims, double k_fraction, ThreadPool* pool) {
  return pk_ratio(power_spectrum(original, dims, 0, pool), reconstructed, dims,
                  k_fraction, pool);
}

PkRatio pk_ratio(const std::vector<PkBin>& pk_o, std::span<const float> reconstructed,
                 const Dims& dims, double k_fraction, ThreadPool* pool) {
  const auto pk_r = power_spectrum(reconstructed, dims, 0, pool);
  require(pk_o.size() == pk_r.size(), "pk_ratio: binning mismatch");

  const double k_max = k_fraction * static_cast<double>(dims.nx) / 2.0;
  PkRatio out;
  for (std::size_t i = 0; i < pk_o.size(); ++i) {
    if (pk_o[i].k > k_max) break;
    const double r = pk_o[i].power > 0.0 ? pk_r[i].power / pk_o[i].power : 1.0;
    out.k.push_back(pk_o[i].k);
    out.ratio.push_back(r);
    out.max_deviation = std::max(out.max_deviation, std::fabs(r - 1.0));
  }
  return out;
}

bool pk_acceptable(const PkRatio& r, double tolerance) {
  return r.max_deviation <= tolerance;
}

}  // namespace cosmo::analysis
