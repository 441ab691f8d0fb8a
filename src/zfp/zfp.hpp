/// \file zfp.hpp
/// \brief ZFP-style transform-based lossy compressor for float fields.
///
/// The paper evaluates cuZFP, which "only supports compression and
/// decompression with fixed-rate mode" (Section IV-B1); fixed-rate is
/// therefore the primary mode here, with fixed-accuracy provided as the
/// CPU-ZFP extension. In fixed-rate mode every 4^rank block occupies
/// exactly round(rate * 4^rank) bits, so the actual bitrate never exceeds
/// the user-set rate (the paper's fixed-rate contract).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/field.hpp"
#include "common/thread_pool.hpp"

namespace cosmo::zfp {

enum class Mode : std::uint8_t {
  kFixedRate = 0,       ///< exact bits/value budget (cuZFP's only mode)
  kFixedAccuracy = 1,   ///< absolute error tolerance (CPU ZFP extension)
  kFixedPrecision = 2,  ///< fixed number of bit planes per block (CPU ZFP)
};

struct Params {
  Mode mode = Mode::kFixedRate;
  /// Bits per value for kFixedRate (e.g. 4.0 => 8x ratio on float32).
  double rate = 8.0;
  /// Absolute error tolerance for kFixedAccuracy.
  double tolerance = 1e-3;
  /// Bit planes kept per block for kFixedPrecision (1..32). Controls
  /// *relative* precision: every block keeps this many planes below its
  /// own exponent, so error scales with local magnitude.
  unsigned precision = 16;
};

struct Stats {
  std::size_t total_points = 0;
  std::size_t total_blocks = 0;
  std::size_t compressed_bytes = 0;
  double bit_rate = 0.0;
};

/// Compresses a float field; the stream is self-describing. The 4^rank
/// block grid is encoded in fixed 512-block ranges, each into its own bit
/// writer, and each range's bits are then placed at its prefix-summed bit
/// offset in the output — both steps range-parallel on \p pool (inline
/// when it is null). The ranges are fixed, so the output is byte-identical
/// to the serial stream for any thread count.
std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats = nullptr,
                                   ThreadPool* pool = nullptr);

/// compress() variant writing into \p out (cleared first, capacity reused) —
/// the allocation-free path repeated sweep iterations use.
void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats = nullptr,
                   ThreadPool* pool = nullptr);

/// Decompresses a buffer produced by compress(). Fixed-rate streams decode
/// block-parallel on \p pool (block i sits at bit offset i * maxbits);
/// variable-size modes decode serially regardless of pool.
std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims = nullptr,
                              ThreadPool* pool = nullptr);

/// decompress() variant writing into \p out (resized in place, capacity
/// reused across repeated calls).
void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims = nullptr, ThreadPool* pool = nullptr);

/// Bits per block implied by a rate for the given rank (fixed-rate mode).
unsigned block_bits_for_rate(double rate, int rank);

}  // namespace cosmo::zfp
