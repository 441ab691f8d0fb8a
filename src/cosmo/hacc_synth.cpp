#include "cosmo/hacc_synth.hpp"

#include <algorithm>
#include <cmath>

#include "random/rng.hpp"

namespace cosmo {

namespace {

/// Maps uniform draws \p u, in place, to halo "masses" (particle count
/// weights) from the truncated power law dn/dM ~ M^-slope on [1, mmax] via
/// the inverse CDF, on \p pool. The mmax terms are computed once.
void masses_from_draws(std::vector<double>& u, double slope, double mmax, ThreadPool* pool) {
  const bool log_uniform = std::fabs(slope - 1.0) < 1e-9;
  const double log_mmax = std::log(mmax);
  const double a = 1.0 - slope;
  // CDF(m) = (m^a - 1) / (mmax^a - 1)
  const double mmax_a_minus_1 = std::pow(mmax, a) - 1.0;
  parallel_for(pool, u.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t h = lo; h < hi; ++h) {
      u[h] = log_uniform ? std::exp(u[h] * log_mmax)
                         : std::pow(1.0 + u[h] * mmax_a_minus_1, 1.0 / a);
    }
  });
}

/// Radial distance sampled from a truncated NFW-like profile
/// rho(r) ~ 1 / (r/rs (1 + r/rs)^2), via rejection on [0, rmax].
double sample_nfw_radius(Rng& rng, double rs, double rmax) {
  // Density of radius (including the r^2 shell factor):
  // p(r) ~ r / (1 + r/rs)^2, whose max over [0, rmax] is at r = rs.
  const double pmax = rs / 4.0;
  for (int tries = 0; tries < 256; ++tries) {
    const double r = rng.uniform() * rmax;
    const double p = r / ((1.0 + r / rs) * (1.0 + r / rs));
    if (rng.uniform() * pmax <= p) return r;
  }
  return rng.uniform() * rmax;  // numerically safe fallback
}

double wrap(double v, double box) {
  v = std::fmod(v, box);
  return v < 0.0 ? v + box : v;
}

}  // namespace

io::Container generate_hacc(const HaccConfig& config, std::vector<HaloTruth>* truth,
                            ThreadPool* pool) {
  require(config.particles >= 1000, "generate_hacc: need at least 1000 particles");
  require(config.halo_count >= 1, "generate_hacc: need at least one halo");
  Rng rng(config.seed);

  const std::size_t n = config.particles;
  std::vector<float> pos[3];
  std::vector<float> vel[3];
  for (int a = 0; a < 3; ++a) {
    pos[a].reserve(n);
    vel[a].reserve(n);
  }

  const auto n_clustered =
      static_cast<std::size_t>(config.clustered_fraction * static_cast<double>(n));

  // Distribute clustered particles over halos proportionally to mass.
  // The draws stay in stream order; only their inverse CDF fans out, and
  // the total is summed in halo order.
  std::vector<double> masses(config.halo_count);
  for (auto& m : masses) m = rng.uniform();
  masses_from_draws(masses, config.mass_slope, 2e4, pool);
  double mass_total = 0.0;
  for (const double m : masses) mass_total += m;

  if (truth) truth->clear();
  std::size_t emitted = 0;
  for (std::size_t h = 0; h < config.halo_count && emitted < n_clustered; ++h) {
    std::size_t members = static_cast<std::size_t>(
        masses[h] / mass_total * static_cast<double>(n_clustered));
    members = std::max(members, config.min_halo_particles);
    members = std::min(members, n_clustered - emitted);
    if (members == 0) break;

    const double cx = rng.uniform() * config.box;
    const double cy = rng.uniform() * config.box;
    const double cz = rng.uniform() * config.box;
    // Halo size grows with mass^(1/3); scale radius ~ 1/8 of the halo.
    const double rvir = 0.35 * std::cbrt(masses[h] / 100.0);
    const double rs = rvir / 4.0;
    // Virial velocity dispersion ~ sqrt(M / R).
    const double sigma_v = 60.0 * std::sqrt(masses[h] / rvir) / 10.0;
    const double bvx = rng.normal(0.0, config.velocity_scale);
    const double bvy = rng.normal(0.0, config.velocity_scale);
    const double bvz = rng.normal(0.0, config.velocity_scale);

    for (std::size_t p = 0; p < members; ++p) {
      const double r = sample_nfw_radius(rng, rs, rvir);
      // Isotropic direction.
      const double costh = rng.uniform(-1.0, 1.0);
      const double sinth = std::sqrt(std::max(0.0, 1.0 - costh * costh));
      const double phi = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
      pos[0].push_back(static_cast<float>(wrap(cx + r * sinth * std::cos(phi), config.box)));
      pos[1].push_back(static_cast<float>(wrap(cy + r * sinth * std::sin(phi), config.box)));
      pos[2].push_back(static_cast<float>(wrap(cz + r * costh, config.box)));
      for (int a = 0; a < 3; ++a) {
        const double bulk = a == 0 ? bvx : a == 1 ? bvy : bvz;
        const double v = std::clamp(bulk + rng.normal(0.0, sigma_v), -1e4, 1e4);
        vel[a].push_back(static_cast<float>(v));
      }
    }
    emitted += members;
    if (truth) truth->push_back({cx, cy, cz, members});
  }

  // Uniform background with Hubble-like smooth flow + small dispersion.
  while (emitted < n) {
    const double x = rng.uniform() * config.box;
    const double y = rng.uniform() * config.box;
    const double z = rng.uniform() * config.box;
    pos[0].push_back(static_cast<float>(x));
    pos[1].push_back(static_cast<float>(y));
    pos[2].push_back(static_cast<float>(z));
    const double c = config.box / 2.0;
    const double hubble = 6.0;  // outward flow per unit distance
    const double hv[3] = {hubble * (x - c), hubble * (y - c), hubble * (z - c)};
    for (int a = 0; a < 3; ++a) {
      const double v = std::clamp(hv[a] + rng.normal(0.0, config.velocity_scale * 0.4),
                                  -1e4, 1e4);
      vel[a].push_back(static_cast<float>(v));
    }
    ++emitted;
  }

  io::Container out;
  for (int a = 0; a < 3; ++a) {
    io::Variable v;
    v.field = Field(kHaccFieldNames[a], Dims::d1(n), std::move(pos[a]));
    v.attributes["units"] = "Mpc/h";
    v.attributes["range"] = "(0, 256)";
    out.variables.push_back(std::move(v));
  }
  for (int a = 0; a < 3; ++a) {
    io::Variable v;
    v.field = Field(kHaccFieldNames[3 + a], Dims::d1(n), std::move(vel[a]));
    v.attributes["units"] = "km/s";
    v.attributes["range"] = "(-1e4, 1e4)";
    out.variables.push_back(std::move(v));
  }
  return out;
}

}  // namespace cosmo
