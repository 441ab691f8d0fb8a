/// \file sz.hpp
/// \brief SZ-style prediction-based error-bounded lossy compressor.
///
/// Implements the three-step SZ pipeline of the paper (Section II-A):
///  1. adaptive best-fit prediction (Lorenzo vs block regression),
///  2. error-bound-driven linear-scaling quantization,
///  3. customized Huffman coding plus a lossless (LZSS) stage.
///
/// Data is processed in independent blocks, mirroring GPU-SZ's blocked
/// memory layout: this is what produces the low-bitrate rate-distortion
/// drop on smooth fields the paper attributes to "dataset blocking ...
/// decorrelates at the block borders".
///
/// The absolute-error-bound guarantee is hard: for every point,
/// |reconstructed - original| <= error_bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/field.hpp"
#include "common/thread_pool.hpp"

namespace cosmo::sz {

/// Compression parameters (ABS mode; see pwrel.hpp for PW_REL).
struct Params {
  /// Absolute error bound (must be > 0).
  double abs_error_bound = 1e-3;
  /// Cubic block edge; 0 selects a rank-dependent default (1-D: 128,
  /// 2-D: 16, 3-D: 8).
  std::size_t block_edge = 0;
  /// Enables the per-block regression predictor alternative.
  bool regression = true;
  /// Applies the LZSS lossless stage to the final stream.
  bool lossless = true;
  /// Quantizer code-space half-width.
  std::uint32_t radius = 1u << 15;
};

/// Optional outputs describing what the compressor did.
struct Stats {
  std::size_t total_points = 0;
  std::size_t unpredictable_points = 0;
  std::size_t total_blocks = 0;
  std::size_t regression_blocks = 0;
  std::size_t compressed_bytes = 0;
  double bit_rate = 0.0;  ///< compressed bits per value
};

/// Compresses a float field; the result is self-describing (stores dims).
/// Blocks are self-contained (Lorenzo never crosses a block border), so the
/// prediction + quantization pass runs block-parallel on \p pool with codes
/// written at deterministic prefix offsets; the entropy and lossless stages
/// use fixed-geometry chunked containers. The stream is byte-identical for
/// any thread count, including the serial pool == nullptr path.
std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats = nullptr,
                                   ThreadPool* pool = nullptr);

/// compress() variant writing into \p out (cleared first, capacity reused;
/// a stream the lossless stage packs takes the packed buffer's place) —
/// the path repeated sweep iterations use.
void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats = nullptr,
                   ThreadPool* pool = nullptr);

/// Decompresses a buffer produced by compress(). \p out_dims receives the
/// stored extents when non-null. Block-parallel on \p pool: per-block code
/// and unpredictable-value offsets are recovered by prefix sums before the
/// reconstruction fans out.
std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims = nullptr,
                              ThreadPool* pool = nullptr);

/// decompress() variant writing into \p out (resized in place, capacity
/// reused across repeated calls; every value is overwritten, so its old
/// contents are never refilled first).
void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims = nullptr, ThreadPool* pool = nullptr);

/// Rank-dependent default block edge used when Params::block_edge == 0.
std::size_t default_block_edge(int rank);

}  // namespace cosmo::sz
