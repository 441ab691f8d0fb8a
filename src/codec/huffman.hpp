/// \file huffman.hpp
/// \brief Canonical Huffman coder over 32-bit symbols.
///
/// This is the entropy-coding stage of the SZ pipeline ("a customized
/// Huffman coding", paper Section II-A). The alphabet is the set of
/// quantization codes actually present in the data, so symbols are sparse
/// 32-bit integers rather than bytes. Codes are canonicalized so the
/// header only stores (symbol, code length) pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/bitstream.hpp"
#include "common/thread_pool.hpp"

namespace cosmo {

/// Encodes \p symbols into the chunked `HUFC` container: one canonical
/// codebook built from the global histogram, then the payload cut into
/// byte-aligned chunks of \p chunk_symbols symbols (0 selects the default,
/// 1<<18) laid out by the shared chunk table (codec/chunk_table.hpp).
/// Chunks encode in parallel on \p pool; the chunk geometry is fixed by
/// chunk_symbols — never by the pool size — so the stream is byte-identical
/// for any thread count (the cuSZ+-style coarse-grained coding pass).
std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols,
                                         ThreadPool* pool = nullptr,
                                         std::size_t chunk_symbols = 0);

/// In/out variant: appends the container to \p out, so a caller can write
/// it straight into its own stream.
void huffman_encode_into(std::span<const std::uint32_t> symbols, std::vector<std::uint8_t>& out,
                         ThreadPool* pool = nullptr, std::size_t chunk_symbols = 0);

/// Decodes a `HUFC` container, chunk-parallel on \p pool, or a legacy
/// single-stream `HUFF` buffer (serially; no encoder writes that format any
/// more), dispatching on the magic. Throws FormatError on malformed input.
std::vector<std::uint32_t> huffman_decode(std::span<const std::uint8_t> bytes,
                                          ThreadPool* pool = nullptr);

/// huffman_decode() into a caller's buffer of exactly the container's symbol
/// count, for a caller that knows it in advance: every element of \p out is
/// written, or FormatError is thrown (a count mismatch before any symbol is
/// decoded). So \p out need not be initialised, and its pages are first
/// touched by the chunk-parallel decode.
void huffman_decode_into(std::span<const std::uint8_t> bytes, std::span<std::uint32_t> out,
                         ThreadPool* pool = nullptr);

/// Computes the per-symbol canonical code lengths for a frequency table
/// (exposed for testing and for entropy estimation). Returned parallel to
/// \p freqs; zero-frequency symbols get length 0.
std::vector<unsigned> huffman_code_lengths(const std::vector<std::uint64_t>& freqs);

/// Shannon entropy (bits/symbol) of a frequency table; the lower bound the
/// Huffman stage approaches. Used by tests and the rate model.
double shannon_entropy_bits(const std::vector<std::uint64_t>& freqs);

}  // namespace cosmo
