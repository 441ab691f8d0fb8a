/// \file env.hpp
/// \brief Environment-variable overrides for experiment scale.
///
/// The paper runs on 512^3 Nyx grids and 1.07e9-particle HACC snapshots;
/// this reproduction defaults to container-friendly sizes and lets users
/// scale back up via REPRO_NYX_DIM / REPRO_HACC_N.
#pragma once

#include <cstddef>
#include <string>

namespace cosmo {

/// Reads an integer environment variable, returning \p fallback when unset
/// or unparsable.
std::size_t env_size(const char* name, std::size_t fallback);

/// Reads a string environment variable with fallback.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace cosmo
