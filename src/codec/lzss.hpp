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

class ScratchArena;

/// Compresses \p input; output is self-describing (stores original size).
/// When \p arena is given, the match tables are leased from it (and
/// returned on exit) so repeated calls reuse their capacity; the arena must
/// not be shared across threads. Streams are byte-identical with or without
/// an arena.
std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input,
                                      ScratchArena* arena = nullptr);

/// Inverse of lzss_encode() or lzss_encode_chunked() (dispatches on the
/// magic). Throws FormatError on malformed input.
std::vector<std::uint8_t> lzss_decode(std::span<const std::uint8_t> input);

/// Chunked container: the input is split into fixed chunks of \p chunk_bytes
/// (0 selects the default, 1 MiB) and each chunk is an independent LZSS
/// stream. Matches at chunk boundaries are forfeited (~0.1% ratio loss at
/// the default size). Encoding uses \p pool inside each chunk as well as
/// across chunks: every chunk is cut into fixed 64 KiB segments that are
/// chained, parsed and emitted in parallel, then stitched into the one
/// serial parse (docs/architecture.md, "LZSS match search"); decoding
/// parallelizes over chunks. The geometry is fixed by chunk_bytes and the
/// segment size — never the pool size — so the output is byte-identical
/// for any thread count.
std::vector<std::uint8_t> lzss_encode_chunked(std::span<const std::uint8_t> input,
                                              ThreadPool* pool = nullptr,
                                              std::size_t chunk_bytes = 0);

/// True when \p bytes starts with the chunked-container magic.
bool is_chunked_lzss(std::span<const std::uint8_t> bytes);

/// Decodes an lzss_encode_chunked() container, chunk-parallel on \p pool.
std::vector<std::uint8_t> lzss_decode_chunked(std::span<const std::uint8_t> bytes,
                                              ThreadPool* pool = nullptr);

}  // namespace cosmo
