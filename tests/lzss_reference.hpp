/// \file lzss_reference.hpp
/// \brief Test oracle for the LZSS stream format: the original serial
/// encoder, with byte-at-a-time match compares, per-field token writes and
/// freshly allocated 64-bit chain tables.
///
/// It parses and inserts into the hash chains in one interleaved pass, the
/// plainest statement of the format: every position below size - 3 enters
/// the chains in order, and each token is the longest of at most 32 chain
/// candidates within the 64 KiB window (the earliest on ties), a match iff
/// it reaches 4 bytes. The library encoder must reproduce its stream byte
/// for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "codec/bitstream.hpp"

namespace cosmo::test {

/// Single LZSS stream of \p input: one chunk of an LZSC container, or a
/// legacy standalone stream when \p input is the whole payload.
inline std::vector<std::uint8_t> lzss_encode_reference(const std::vector<std::uint8_t>& input) {
  constexpr std::uint32_t kMagic = 0x4C5A5353;  // "LZSS"
  constexpr unsigned kWindowBits = 16;
  constexpr unsigned kLengthBits = 8;
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxMatch = kMinMatch + (1u << kLengthBits) - 1;
  constexpr std::size_t kWindow = 1u << kWindowBits;
  constexpr std::size_t kHashSize = 1u << 15;
  constexpr int kMaxChain = 32;
  const auto hash4 = [&](std::size_t at) {
    std::uint32_t x;
    std::memcpy(&x, input.data() + at, 4);
    return (x * 2654435761u) >> (32 - 15);
  };

  const std::size_t size = input.size();
  BitWriter bw;
  bw.put(kMagic, 32);
  bw.put(size, 64);

  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(size, -1);

  std::size_t i = 0;
  while (i < size) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= size) {
      std::int64_t cand = head[hash4(i)];
      int chain = 0;
      while (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow && chain < kMaxChain) {
        const std::size_t c = static_cast<std::size_t>(cand);
        std::size_t len = 0;
        const std::size_t max_len = std::min(kMaxMatch, size - i);
        while (len < max_len && input[c + len] == input[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == max_len) break;
        }
        cand = prev[c];
        ++chain;
      }
    }
    if (best_len >= kMinMatch) {
      bw.put_bit(true);
      bw.put(best_dist - 1, kWindowBits);
      bw.put(best_len - kMinMatch, kLengthBits);
      // Insert all covered positions into the hash chains.
      const std::size_t end = std::min(i + best_len, size >= 4 ? size - 3 : 0);
      for (std::size_t j = i; j < end; ++j) {
        const std::uint32_t h = hash4(j);
        prev[j] = head[h];
        head[h] = static_cast<std::int64_t>(j);
      }
      i += best_len;
    } else {
      bw.put_bit(false);
      bw.put(input[i], 8);
      if (i + 4 <= size) {
        const std::uint32_t h = hash4(i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      ++i;
    }
  }
  return bw.finish();
}

/// lzss_encode() as the reference encoder would assemble it: the
/// container header, the u32 chunk-size table, then one reference stream
/// per chunk of \p chunk_bytes.
inline std::vector<std::uint8_t> lzss_encode_chunked_reference(
    const std::vector<std::uint8_t>& input, std::size_t chunk_bytes) {
  const std::size_t n_chunks = input.empty() ? 0 : (input.size() + chunk_bytes - 1) / chunk_bytes;
  BitWriter header;
  header.put(0x4C5A5343, 32);  // "LZSC"
  header.put(input.size(), 64);
  header.put(chunk_bytes, 32);
  header.put(n_chunks, 32);
  std::vector<std::uint8_t> out = header.finish();
  std::vector<std::uint8_t> payloads;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const auto begin = input.begin() + static_cast<std::ptrdiff_t>(c * chunk_bytes);
    const auto end = input.begin() +
                     static_cast<std::ptrdiff_t>(std::min((c + 1) * chunk_bytes, input.size()));
    const std::vector<std::uint8_t> stream = lzss_encode_reference({begin, end});
    const auto len = static_cast<std::uint32_t>(stream.size());
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    payloads.insert(payloads.end(), stream.begin(), stream.end());
  }
  out.insert(out.end(), payloads.begin(), payloads.end());
  return out;
}

}  // namespace cosmo::test
