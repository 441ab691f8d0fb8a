/// \file lzss.hpp
/// \brief LZSS dictionary coder (hash-chain match finder, 64 KiB window).
///
/// Stands in for the Zstd lossless back-end the released SZ uses after
/// Huffman coding. The role in the pipeline — squeezing residual
/// redundancy out of the Huffman header + payload and of the
/// unpredictable-data section — is identical; only the absolute speed
/// differs, which is irrelevant to the reproduction's quality results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"

namespace cosmo {

/// Compresses \p input into the chunked `LZSC` container: the input is
/// split into fixed chunks of \p chunk_bytes (0 selects the default, 1 MiB),
/// each an independent LZSS stream, laid out by the shared chunk table
/// (codec/chunk_table.hpp). Matches at chunk boundaries are forfeited
/// (~0.1% ratio loss at the default size). Encoding uses \p pool inside
/// each chunk as well as across chunks: every chunk is cut into fixed
/// 64 KiB segments that are chained, parsed and emitted in parallel, then
/// stitched into the one serial parse (docs/architecture.md, "LZSS match
/// search"). The geometry is fixed by chunk_bytes and the segment size —
/// never the pool size — so the output is byte-identical for any thread
/// count.
std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input,
                                      ThreadPool* pool = nullptr, std::size_t chunk_bytes = 0);

/// lzss_encode() at the default chunk size for a caller that keeps the
/// container only when it is smaller than \p beat bytes: appends it to
/// \p out and returns true, or returns false with \p out as it was. The
/// parse sizes every stream before any token is written, so a container
/// that would not be smaller costs no emit phase.
bool lzss_encode_into(std::span<const std::uint8_t> input, std::vector<std::uint8_t>& out,
                      std::size_t beat, ThreadPool* pool = nullptr);

/// Decodes an `LZSC` container, chunk-parallel on \p pool, or a legacy
/// standalone `LZSS` stream (serially; no encoder writes that format any
/// more), dispatching on the magic. Throws FormatError on malformed input.
std::vector<std::uint8_t> lzss_decode(std::span<const std::uint8_t> bytes,
                                      ThreadPool* pool = nullptr);

}  // namespace cosmo
