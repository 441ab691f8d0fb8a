/// \file sweep.hpp
/// \brief Candidate-configuration sweep generators for the Section V-D
/// guideline: the paper sweeps absolute error bounds as fractions of each
/// field's value range (GPU-SZ) and fixed bitrates (cuZFP). Every grid is a
/// SweepAxis materialized by configs_for_axis, so benches, examples and
/// user code share one lattice builder.
#pragma once

#include <vector>

#include "common/field.hpp"
#include "foresight/compressor.hpp"

namespace cosmo::foresight {

/// Materializes one sweep axis against a concrete field:
/// kFixedValues uses the values verbatim, kRangeFractions scales log-spaced
/// fractions by the field's value range, kLogValues log-spaces absolute
/// values. All configs carry the axis's mode.
std::vector<CompressorConfig> configs_for_axis(const SweepAxis& axis, const Field& field);

/// The default candidate grid per Nyx-like field for a codec:
/// the codec's primary CodecCapabilities::default_sweep axis, materialized
/// for \p field (e.g. the ZFP family's rates {1,2,4,8}, the SZ/FZ family's
/// range-scaled absolute bounds 2e-6..2e-3 of the range). Unknown
/// codecs throw InvalidArgument.
std::vector<CompressorConfig> default_grid_candidates(const std::string& codec,
                                                      const Field& field);

/// The paper's HACC position candidates, keyed off the codec's modes:
/// absolute bounds when supported, fixed bitrates otherwise. Shared by the
/// guideline bench, the optimizer CLI and the pipeline's optimizer stage.
std::vector<CompressorConfig> default_position_candidates(const CodecCapabilities& caps);

/// HACC velocity candidates: point-wise-relative bounds when supported
/// (Sec. IV-B4), bitrates for rate-mode codecs, range-scaled absolute
/// bounds otherwise.
std::vector<CompressorConfig> default_velocity_candidates(const CodecCapabilities& caps,
                                                          const Field& velocity_field);

}  // namespace cosmo::foresight
