/// \file quantizer.hpp
/// \brief Linear-scaling quantization with error-controlled reconstruction.
///
/// SZ step 2 (paper Section II-A): "quantize the difference between the
/// real value and predicted value based on the user-set error bound."
/// A prediction error e is mapped to code round(e / (2*eb)) + radius; codes
/// within [1, 2*radius-1] are "predictable" and reconstruct to
/// pred + (code - radius) * 2*eb, which is within eb of the original.
/// Code 0 marks an unpredictable point whose value is stored verbatim.
///
/// quantize()/reconstruct() are defined inline here (not in the .cpp): they
/// run once per sample inside the prediction loops, and the call previously
/// crossed a translation-unit boundary on every point. The arithmetic is
/// unchanged — same double-precision expressions, same nearbyint — so codes
/// and reconstructions are bit-identical to the out-of-line version.
#pragma once

#include <cmath>
#include <cstdint>

namespace cosmo::sz {

/// Error-bounded linear quantizer.
class Quantizer {
 public:
  /// \p error_bound is the absolute bound; \p radius the code-space half
  /// width (default 2^15, i.e. 16-bit code space like SZ's default).
  explicit Quantizer(double error_bound, std::uint32_t radius = 1u << 15);

  [[nodiscard]] double error_bound() const { return eb_; }
  [[nodiscard]] std::uint32_t radius() const { return radius_; }

  /// Quantizes an (original, predicted) pair. Returns the code and the
  /// reconstructed value, or code 0 (unpredictable) when the error exceeds
  /// the code space, is not finite, or reconstruction would break the bound.
  struct Result {
    std::uint32_t code;  ///< 0 = unpredictable
    float reconstructed; ///< valid only when code != 0
  };
  [[nodiscard]] Result quantize(float original, float predicted) const {
    const double diff = static_cast<double>(original) - static_cast<double>(predicted);
    const double scaled = diff / (2.0 * eb_);
    const double rounded = std::nearbyint(scaled);
    // Written so that NaN fails the test too: a non-finite input (NaN, or
    // Inf - Inf) is unpredictable and never reaches the integer cast.
    if (!(std::fabs(rounded) < static_cast<double>(radius_))) {
      return {0, 0.0f};  // outside code space -> unpredictable
    }
    const std::uint32_t code =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(rounded) + radius_);
    const float recon = reconstruct(code, predicted);
    // Guard against float rounding breaking the bound (rare, near eb edges).
    if (std::fabs(static_cast<double>(recon) - static_cast<double>(original)) > eb_) {
      return {0, 0.0f};
    }
    return {code, recon};
  }

  /// Reconstructs from a nonzero code and prediction.
  [[nodiscard]] float reconstruct(std::uint32_t code, float predicted) const {
    const std::int64_t offset = static_cast<std::int64_t>(code) - radius_;
    return static_cast<float>(static_cast<double>(predicted) +
                              static_cast<double>(offset) * 2.0 * eb_);
  }

 private:
  double eb_;
  std::uint32_t radius_;
};

}  // namespace cosmo::sz
