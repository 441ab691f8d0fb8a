/// \file bench_util.hpp
/// \brief Shared helpers for the per-table/figure benchmark binaries.
///
/// Scale defaults are container-friendly; REPRO_NYX_DIM / REPRO_HACC_N
/// scale the experiments toward the paper's 512^3 / 1.07e9 sizes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/str.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cinema.hpp"

namespace cosmo::bench {

/// Reads a positive integer environment variable, returning \p fallback when
/// unset, unparsable or zero.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

/// Reads a string environment variable with fallback.
inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

inline std::size_t nyx_dim() { return env_size("REPRO_NYX_DIM", 64); }
inline std::size_t hacc_particles() { return env_size("REPRO_HACC_N", 200000); }
inline std::string out_dir() { return env_string("REPRO_OUT_DIR", "bench_out"); }

inline io::Container make_nyx() {
  NyxConfig config;
  config.dim = nyx_dim();
  return generate_nyx(config);
}

inline io::Container make_hacc() {
  HaccConfig config;
  config.particles = hacc_particles();
  config.halo_count = std::max<std::size_t>(40, hacc_particles() / 1500);
  return generate_hacc(config);
}

inline void banner(const char* id, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("scale: Nyx %zu^3, HACC %zu particles (REPRO_NYX_DIM / REPRO_HACC_N)\n",
              nyx_dim(), hacc_particles());
  std::printf("==============================================================\n\n");
}

}  // namespace cosmo::bench
