#include "cosmo/nyx_synth.hpp"

#include <algorithm>
#include <cmath>

#include "fft/fft.hpp"
#include "random/rng.hpp"

namespace cosmo {

namespace {

/// LambdaCDM-like template: rises as k^ns at large scales, turns over at the
/// knee and falls as k^(ns-4), qualitatively matching the matter spectrum.
double spectrum_template(double k, double ns, double knee) {
  if (k <= 0.0) return 0.0;
  const double x = k / knee;
  return std::pow(k, ns) / std::pow(1.0 + x * x, 2.0);
}

/// Wrapped integer frequency for FFT bin i of n.
double freq(std::size_t i, std::size_t n) {
  const auto s = static_cast<double>(i);
  const auto nn = static_cast<double>(n);
  return i <= n / 2 ? s : s - nn;
}

/// sqrt(P(k)) * k^extra_k_power for every k^2 the grid holds. The wrapped
/// frequencies are integers, so k^2 = kx^2 + ky^2 + kz^2 is an exact integer
/// and indexes the table; each entry is computed from sqrt(k^2) exactly as
/// the per-point formula would, so the filter is unchanged bit for bit.
std::vector<double> amplitude_table(const Dims& dims, double ns, double knee,
                                    double extra_k_power) {
  const auto half_sq = [](std::size_t n) { return (n / 2) * (n / 2); };
  std::vector<double> amp(half_sq(dims.nx) + half_sq(dims.ny) + half_sq(dims.nz) + 1);
  for (std::size_t k2 = 0; k2 < amp.size(); ++k2) {
    const double k = std::sqrt(static_cast<double>(k2));
    amp[k2] = std::sqrt(spectrum_template(k, ns, knee));
    if (extra_k_power != 0.0 && k > 0.0) amp[k2] *= std::pow(k, extra_k_power);
  }
  return amp;
}

/// Generates a real GRF with the template spectrum: white noise ->
/// forward FFT -> sqrt(P(k)) filter -> inverse FFT. Normalized to unit
/// variance. The noise is drawn serially from \p rng; the transforms and
/// the filter run on \p pool, with output identical for any thread count.
std::vector<float> gaussian_random_field(const Dims& dims, Rng& rng, double ns,
                                         double knee, double extra_k_power,
                                         ThreadPool* pool) {
  std::vector<cplx> grid(dims.count());
  for (auto& g : grid) g = cplx(rng.normal(), 0.0);
  fft_3d(grid, dims, /*inverse=*/false, pool);
  const std::vector<double> amp = amplitude_table(dims, ns, knee, extra_k_power);
  const auto freq_sq = [](std::size_t i, std::size_t n) {
    const double f = freq(i, n);
    return static_cast<std::size_t>(f * f);
  };
  parallel_for(pool, dims.nz, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t z = lo; z < hi; ++z) {
      const std::size_t kz2 = freq_sq(z, dims.nz);
      for (std::size_t y = 0; y < dims.ny; ++y) {
        const std::size_t kyz2 = kz2 + freq_sq(y, dims.ny);
        cplx* row = grid.data() + dims.index(0, y, z);
        for (std::size_t x = 0; x < dims.nx; ++x) row[x] *= amp[kyz2 + freq_sq(x, dims.nx)];
      }
    }
  }, /*min_grain=*/1);
  grid[0] = cplx(0.0, 0.0);  // zero mean
  fft_3d(grid, dims, /*inverse=*/true, pool);

  std::vector<float> out(dims.count());
  double var = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out[i] = static_cast<float>(grid[i].real());
    var += grid[i].real() * grid[i].real();
  }
  var /= static_cast<double>(grid.size());
  const float norm = var > 0.0 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
  for (auto& v : out) v *= norm;
  return out;
}

}  // namespace

Field generate_nyx_delta(const NyxConfig& config) {
  require(is_pow2(config.dim), "generate_nyx: dim must be a power of two");
  const Dims dims = Dims::d3(config.dim, config.dim, config.dim);
  Rng rng(config.seed);
  Field f("delta", dims,
          gaussian_random_field(dims, rng, config.spectral_index, config.knee, 0.0, nullptr));
  return f;
}

io::Container generate_nyx(const NyxConfig& config, ThreadPool* pool) {
  require(is_pow2(config.dim), "generate_nyx: dim must be a power of two");
  const Dims dims = Dims::d3(config.dim, config.dim, config.dim);
  Rng rng(config.seed);

  // Two correlated density contrasts (baryons trace dark matter loosely).
  const auto delta_dm =
      gaussian_random_field(dims, rng, config.spectral_index, config.knee, 0.0, pool);
  auto delta_b = delta_dm;
  {
    Rng noise = rng.split();
    const auto extra =
        gaussian_random_field(dims, noise, config.spectral_index, config.knee * 2.0,
                              0.0, pool);
    for (std::size_t i = 0; i < delta_b.size(); ++i) {
      delta_b[i] = 0.9f * delta_b[i] + 0.35f * extra[i];
    }
  }

  io::Container out;
  const double sigma = config.sigma_delta;

  // Log-normal transform: rho = rho0 * exp(sigma * delta - sigma^2 / 2)
  // gives mean rho0 and the long upper tail Table II reports.
  auto lognormal = [&](const std::vector<float>& delta, double rho0, double cap) {
    std::vector<float> rho(delta.size());
    for (std::size_t i = 0; i < delta.size(); ++i) {
      const double v = rho0 * std::exp(sigma * delta[i] - sigma * sigma / 2.0);
      rho[i] = static_cast<float>(std::min(v, cap));
    }
    return rho;
  };

  {
    io::Variable v;
    v.field = Field(kNyxFieldNames[0], dims, lognormal(delta_b, 80.0, 1e5));
    v.attributes["units"] = "Msun/Mpc^3";
    v.attributes["range"] = "(0, 1e5)";
    out.variables.push_back(std::move(v));
  }
  {
    io::Variable v;
    v.field = Field(kNyxFieldNames[1], dims, lognormal(delta_dm, 40.0, 1e4));
    v.attributes["units"] = "Msun/Mpc^3";
    v.attributes["range"] = "(0, 1e4)";
    out.variables.push_back(std::move(v));
  }
  {
    // Temperature follows density adiabatically: T = T0 (rho/rho0)^gamma,
    // clamped to Table II's (1e2, 1e7).
    const auto& rho_b = out.variables[0].field.data;
    std::vector<float> temp(rho_b.size());
    Rng tn = rng.split();
    for (std::size_t i = 0; i < rho_b.size(); ++i) {
      const double ratio = static_cast<double>(rho_b[i]) / 80.0;
      const double t =
          1.2e4 * std::pow(std::max(ratio, 1e-6), 0.62) * std::exp(0.08 * tn.normal());
      temp[i] = static_cast<float>(std::clamp(t, 1e2, 1e7));
    }
    io::Variable v;
    v.field = Field(kNyxFieldNames[2], dims, std::move(temp));
    v.attributes["units"] = "K";
    v.attributes["range"] = "(1e2, 1e7)";
    out.variables.push_back(std::move(v));
  }

  // Velocities: large-scale flows (P(k)/k^2 weighting) plus a white-noise
  // component so the three components share characteristics ("velocity
  // fields have similar data characteristics, which is more random",
  // paper Section V-A).
  for (int axis = 0; axis < 3; ++axis) {
    Rng vr = rng.split();
    auto flow = gaussian_random_field(dims, vr, config.spectral_index, config.knee, -1.0,
                                      pool);
    Rng wn = rng.split();
    std::vector<float> vel(flow.size());
    const double s = config.velocity_sigma;
    const double noise = config.velocity_noise;
    for (std::size_t i = 0; i < flow.size(); ++i) {
      const double v = s * ((1.0 - noise) * flow[i] + noise * wn.normal());
      vel[i] = static_cast<float>(std::clamp(v, -1e8, 1e8));
    }
    io::Variable v;
    v.field = Field(kNyxFieldNames[3 + axis], dims, std::move(vel));
    v.attributes["units"] = "cm/s";
    v.attributes["range"] = "(-1e8, 1e8)";
    out.variables.push_back(std::move(v));
  }
  return out;
}

}  // namespace cosmo
