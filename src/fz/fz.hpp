/// \file fz.hpp
/// \brief FZ-GPU-style error-bounded compressor (arXiv:2304.12557): Lorenzo
/// quantization followed by a bit-plane *bitshuffle* transpose and a
/// zero-run sparsified lossless stage.
///
/// The FZ-GPU pipeline replaces cuSZ's Huffman stage with two cheap,
/// massively parallel passes: quantization codes are remapped so that the
/// common (well-predicted) values use small symbols, the 16 bit-planes of
/// the symbol array are transposed into contiguous byte planes
/// ("bitshuffle"), and the resulting mostly-zero planes are stored as a
/// bitmap of non-zero 16-byte groups plus their payload ("zero-run
/// sparsification"). Both passes are branch-light and byte-oriented, which
/// is what makes the real codec faster than cuSZ at similar ratios.
///
/// This port keeps the exact stream format independent of thread count:
/// values are split into fixed-size chunks (each Lorenzo-predicted from a
/// zero seed, so chunks are independent). Each task codes its chunks four
/// at a time in lockstep into a private staging buffer; the payload sizes
/// are then prefix-summed and every payload is copied, in parallel, to its
/// offset after the header and size table. Offsets depend only on the
/// chunks, never on the partition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/field.hpp"
#include "common/thread_pool.hpp"

namespace cosmo::fz {

struct Params {
  double abs_error_bound = 1e-3;
  /// Values per independent chunk. Part of the stream format: the chunk
  /// geometry is fixed at encode time, so streams are byte-identical for
  /// any thread count.
  std::size_t chunk_values = 4096;
  /// Quantizer radius; codes land in [0, 2*radius). Must stay <= 1<<15 so
  /// remapped symbols fit the 16 bit-planes of the shuffle stage.
  std::uint32_t radius = 1u << 15;
};

struct Stats {
  std::size_t n_values = 0;
  std::size_t n_unpredictable = 0;
  std::size_t compressed_bytes = 0;
  double bit_rate = 0.0;  ///< bits per value
};

/// --- Stage primitives (exposed for benches, fuzzing and tests) ----------

/// Transposes \p codes into 16 bit-planes, LSB plane first. Each plane is
/// ceil(n/8) bytes; byte j of a plane packs the bit for codes[8j..8j+7]
/// (code index k contributes bit k%8). Returns 16 * ceil(n/8) bytes.
std::vector<std::uint8_t> bitshuffle(std::span<const std::uint16_t> codes);

/// Inverse of bitshuffle. \p count is the original code count; throws
/// FormatError when \p planes is not exactly 16 * ceil(count/8) bytes.
std::vector<std::uint16_t> bitunshuffle(std::span<const std::uint8_t> planes,
                                        std::size_t count);

/// Sparsifies \p bytes: a bitmap flags which 16-byte groups contain any
/// non-zero byte; only those groups' bytes are stored. Self-describing
/// (leads with the original length).
std::vector<std::uint8_t> zero_run_encode(std::span<const std::uint8_t> bytes);

/// Inverse of zero_run_encode; throws FormatError on malformed input and
/// bounds the output allocation by the input size (a corrupted length
/// cannot cause an unbounded allocation).
std::vector<std::uint8_t> zero_run_decode(std::span<const std::uint8_t> bytes);

/// --- Full codec ----------------------------------------------------------

/// Compresses \p data under an absolute error bound. Deterministic: the
/// stream depends only on data, dims and params, never on \p pool.
std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats = nullptr,
                                   ThreadPool* pool = nullptr);

/// In/out variant reusing the caller's buffer.
void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats = nullptr,
                   ThreadPool* pool = nullptr);

/// Decompresses a stream produced by compress(). Throws FormatError for
/// malformed input; never crashes or overallocates on corrupted headers.
std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims = nullptr,
                              ThreadPool* pool = nullptr);

/// In/out variant reusing the caller's buffer.
void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims = nullptr, ThreadPool* pool = nullptr);

}  // namespace cosmo::fz
