/// \file hacc_synth.hpp
/// \brief Synthetic HACC particle snapshot generator.
///
/// Stands in for the ANL "Small Outer Rim timestep 499" dataset (paper
/// Table II): six 1-D single-precision arrays holding particle position
/// (x, y, z) in (0, 256) and velocity (vx, vy, vz) in (-1e4, 1e4).
///
/// Particles are drawn from a population of NFW-like halos whose masses
/// follow a truncated power-law mass function, plus a uniform background.
/// That preserves exactly what the paper's metrics see:
///  - Friends-of-Friends finds a halo mass spectrum spanning decades
///    (Fig. 6's x-axis), sensitive to position perturbations;
///  - positions are locally smooth (clustered) while velocities carry a
///    large virial-dispersion component, reproducing the
///    position-vs-velocity compressibility contrast (Fig. 4b).
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "io/container.hpp"

namespace cosmo {

struct HaccConfig {
  std::size_t particles = 1000000;  ///< paper: 1,073,726,359
  std::uint64_t seed = 7;
  double box = 256.0;               ///< box edge, positions in (0, box)
  double clustered_fraction = 0.65; ///< particles bound in halos
  std::size_t halo_count = 600;     ///< number of halos
  double mass_slope = 2.0;          ///< dn/dM ~ M^-slope
  std::size_t min_halo_particles = 20;
  double velocity_scale = 1.4e3;    ///< bulk-flow sigma per axis
};

/// Field names in canonical order.
inline constexpr const char* kHaccFieldNames[6] = {"x", "y", "z", "vx", "vy", "vz"};

/// Ground truth about the generated halos (for halo-finder validation).
struct HaloTruth {
  double cx, cy, cz;     ///< halo center
  std::size_t particles; ///< members generated
};

/// Generates the six-array snapshot as a GenericIO-lite container, and
/// reports the generated halos in \p truth when it is non-null. The random
/// draws are serial; the halo-mass inverse CDF runs on \p pool (null:
/// serial). The bytes are identical for any pool.
io::Container generate_hacc(const HaccConfig& config, std::vector<HaloTruth>* truth = nullptr,
                            ThreadPool* pool = nullptr);

}  // namespace cosmo
