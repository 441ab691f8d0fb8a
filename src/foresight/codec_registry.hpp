/// \file codec_registry.hpp
/// \brief Self-registering codec catalog: capabilities + factories.
///
/// The paper's workflow compares *sets* of compressors, so the codec
/// roster must be open: a new backend registers a factory plus a
/// CodecCapabilities descriptor here and every layer that used to
/// string-match codec names — make_compressor, the sweep-lattice builder,
/// the optimizer's config pruning, the pipeline's plot styling, the CLI,
/// and the bench figure binaries — picks it up by querying capabilities
/// instead. Adding a codec requires zero edits to those dispatch layers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cosmo::gpu {
class GpuSimulator;
}

namespace cosmo::foresight {

class Compressor;

/// One axis of a codec's default sweep lattice: the mode plus how to turn
/// a field into concrete config values.
struct SweepAxis {
  enum class Kind {
    kFixedValues,     ///< use \c values verbatim (e.g. ZFP rates)
    kRangeFractions,  ///< log-spaced fractions of the field's value range
    kLogValues,       ///< log-spaced absolute values, field-independent
  };
  std::string mode;
  Kind kind = Kind::kFixedValues;
  std::vector<double> values;  ///< kFixedValues only
  double lo = 0.0;             ///< kRangeFractions / kLogValues span
  double hi = 0.0;
  std::size_t count = 0;
};

/// Everything the dispatch layers need to know about a codec without
/// naming it.
struct CodecCapabilities {
  std::string name;
  std::string summary;                  ///< one line for `foresight_cli codecs`
  std::vector<std::string> modes;       ///< supported CompressorConfig modes
  bool needs_device = false;            ///< requires a GpuSimulator to construct
  bool concurrent_sessions_safe = true; ///< sessions may run on parallel workers
  bool throughput_reportable = true;    ///< kernel GB/s is meaningful for this codec
  bool plot_dashed = false;             ///< drawn dashed in rate-distortion figures
  /// sz::estimate_rate predicts this codec's abs-mode bitrate (the codec's
  /// abs path is the SZ prediction+quantization pipeline). The guided
  /// optimizer uses the estimator for pruned-candidate CR predictions.
  bool abs_rate_estimable = false;
  std::string kernel_profile;           ///< GpuSimulator::kernel_rates() key; empty = host-only
  std::vector<SweepAxis> default_sweep; ///< per-mode lattices; front() is the primary

  [[nodiscard]] bool supports_mode(const std::string& mode) const;
  /// "abs, pw_rel" — for error messages and the CLI table.
  [[nodiscard]] std::string modes_label() const;
  /// Throws InvalidArgument listing the supported modes when \p mode is
  /// not one of them.
  void require_mode(const std::string& mode) const;
};

/// The process-wide codec catalog. Registration order is presentation
/// order (available_compressors(), the CLI table, bench iteration).
class CodecRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Compressor>(gpu::GpuSimulator*)>;

  /// The singleton, with all built-in codecs registered on first use.
  static CodecRegistry& instance();

  /// Registers a codec. Throws InvalidArgument on empty/duplicate names or
  /// an empty mode list.
  void add(CodecCapabilities caps, Factory factory);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Throws InvalidArgument (listing registered names) for unknown codecs.
  [[nodiscard]] const CodecCapabilities& capabilities(const std::string& name) const;
  /// Constructs a codec; enforces needs_device (a device codec without a
  /// simulator is InvalidArgument). Unknown names list the registry.
  [[nodiscard]] std::unique_ptr<Compressor> make(const std::string& name,
                                                 gpu::GpuSimulator* sim) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  CodecRegistry() = default;
  struct Entry {
    CodecCapabilities caps;
    Factory factory;
  };
  [[nodiscard]] const Entry* find(const std::string& name) const;
  [[nodiscard]] std::string names_label() const;

  std::vector<Entry> entries_;
};

namespace detail {
/// Registration hook (compressor.cpp), called once from
/// CodecRegistry::instance(). Static libraries drop unreferenced global
/// initializers, so self-registration is routed through this explicit call
/// instead of static objects.
void register_builtin_codecs(CodecRegistry& registry);
}  // namespace detail

}  // namespace cosmo::foresight
