/// \file nyx_synth.hpp
/// \brief Synthetic Nyx snapshot generator.
///
/// Stands in for the LBNL Nyx dataset (paper Table II): six 3-D
/// single-precision fields — baryon density, dark matter density,
/// temperature, and velocity (vx, vy, vz) — on a single-level grid.
/// Fields are built from Gaussian random fields with a LambdaCDM-like
/// power spectrum (generated with our own FFT), log-normal-transformed
/// for densities so the value ranges and dynamic ranges match Table II:
///   rho_b in (0, 1e5), rho_dm in (0, 1e4), T in (1e2, 1e7),
///   velocities in (-1e8, 1e8).
/// The known input spectrum is what makes the Fig. 5 power-spectrum-ratio
/// analysis meaningful on synthetic data.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "io/container.hpp"

namespace cosmo {

struct NyxConfig {
  std::size_t dim = 128;        ///< grid edge (power of two; paper: 512)
  std::uint64_t seed = 42;
  double box_mpc = 28.0;        ///< comoving box edge, used for k units
  double spectral_index = 1.0;  ///< primordial tilt n_s
  double knee = 8.0;            ///< spectrum turnover (grid frequency units)
  double sigma_delta = 1.1;     ///< log-density fluctuation amplitude
  double velocity_sigma = 9.0e6;///< cm/s, gives the (-1e8, 1e8) range
  double velocity_noise = 0.15; ///< white-noise fraction in velocities
};

/// Field names in canonical order.
inline constexpr const char* kNyxFieldNames[6] = {
    "baryon_density", "dark_matter_density", "temperature",
    "velocity_x",     "velocity_y",          "velocity_z",
};

/// Generates the six-field snapshot as an HDF5-lite container. The random
/// draws are serial; the FFTs and the spectral filter of each Gaussian
/// random field run on \p pool (null: serial). The bytes are identical for
/// any pool.
io::Container generate_nyx(const NyxConfig& config, ThreadPool* pool = nullptr);

/// Generates just the density contrast delta(x) (zero mean), exposed for
/// power-spectrum tests against the known input spectrum.
Field generate_nyx_delta(const NyxConfig& config);

}  // namespace cosmo
