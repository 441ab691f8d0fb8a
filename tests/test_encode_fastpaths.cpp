/// \file test_encode_fastpaths.cpp
/// \brief Byte-identity coverage for the encode-side fast paths: the
/// table-driven Huffman encoder vs the std::map + bit-at-a-time reference,
/// the gated hash-chain LZSS encoder vs the byte-at-a-time reference, the
/// BitWriter put_pair/Appender fast lanes vs plain put sequences, and
/// thread-count independence of the chunked containers. The encoders'
/// contract is stronger than round-trip correctness: the rewritten paths
/// must emit the same bytes as the originals on every input.
#include <gtest/gtest.h>

#include <cstring>

#include "codec/bitstream.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/thread_pool.hpp"
#include "huffman_reference.hpp"
#include "lzss_reference.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

/// Symbol streams spanning the histogram strategies (dense span vs sparse
/// map fallback) and the emit-table shapes (short codes, long codes,
/// degenerate alphabets).
std::vector<std::vector<std::uint32_t>> encode_symbol_cases() {
  std::vector<std::vector<std::uint32_t>> cases;
  Rng rng(321);
  // Quantization-code cluster around the SZ radius: dense histogram,
  // short codes.
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 20000; ++i) {
      s.push_back(32768 + static_cast<std::uint32_t>(rng.uniform_index(9)) - 4);
    }
    cases.push_back(std::move(s));
  }
  // Uniform over a wide alphabet: long codes, still dense (span 8192).
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 30000; ++i) {
      s.push_back(static_cast<std::uint32_t>(rng.uniform_index(8192)));
    }
    cases.push_back(std::move(s));
  }
  // Span wider than the dense-histogram cutoff (2^22): forces the sparse
  // std::map fallback in count_freqs and the sparse emit table.
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 5000; ++i) {
      s.push_back(static_cast<std::uint32_t>(rng.uniform_index(1u << 24)));
    }
    s.push_back(0);            // pin the span ends
    s.push_back((1u << 24) + 7);
    cases.push_back(std::move(s));
  }
  // Skewed mix: dominant symbol plus long tail.
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 30000; ++i) {
      s.push_back(rng.uniform() < 0.6
                      ? 7u
                      : static_cast<std::uint32_t>(rng.uniform_index(5000)));
    }
    cases.push_back(std::move(s));
  }
  cases.push_back({});                    // empty
  cases.push_back({1234});                // single occurrence
  cases.push_back({5, 5, 5, 5});          // single symbol, multiple counts
  cases.push_back({0, 0xFFFFFFFFu});      // extreme span, two symbols
  cases.push_back(std::vector<std::uint32_t>(4096, 99));  // constant run
  return cases;
}

/// Byte buffers spanning the LZSS search regimes: incompressible (every
/// candidate gate fails), all-match (maximal-length matches), periodic
/// (distance ties broken by chain order), planted long-range matches, and
/// repeats straddling the window boundary.
std::vector<std::vector<std::uint8_t>> encode_byte_cases() {
  std::vector<std::vector<std::uint8_t>> cases;
  Rng rng(654);
  {
    std::vector<std::uint8_t> random_bytes(1 << 18);
    for (auto& b : random_bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    cases.push_back(random_bytes);
    // Planted matches inside otherwise incompressible data.
    std::vector<std::uint8_t> mixed = random_bytes;
    std::memcpy(mixed.data() + 150000, mixed.data() + 123, 20000);
    std::memcpy(mixed.data() + 250000, mixed.data() + 150001, 300);
    cases.push_back(std::move(mixed));
  }
  cases.push_back(std::vector<std::uint8_t>(1 << 17, 0x42));  // constant
  {
    std::vector<std::uint8_t> periodic(1 << 17);
    for (std::size_t i = 0; i < periodic.size(); ++i) {
      periodic[i] = static_cast<std::uint8_t>(i % 251);
    }
    cases.push_back(std::move(periodic));
  }
  // Hash-chain torture: 90% zeros keeps the zero bucket's chain at the
  // kMaxChain cap so the capped-walk bookkeeping is exercised.
  {
    std::vector<std::uint8_t> heavy(1 << 17);
    for (std::size_t i = 0; i < heavy.size(); ++i) {
      heavy[i] = rng.uniform() < 0.9 ? 0 : static_cast<std::uint8_t>(i * 7);
    }
    cases.push_back(std::move(heavy));
  }
  // Repeats spaced exactly at the window size and one past it: the first
  // is the most distant legal match, the second must be rejected.
  {
    const std::size_t window = 1u << 16;
    std::vector<std::uint8_t> spaced(3 * window + 64);
    for (auto& b : spaced) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    std::memcpy(spaced.data() + window, spaced.data(), 12);
    std::memcpy(spaced.data() + 2 * window + 1, spaced.data() + window, 12);
    cases.push_back(std::move(spaced));
  }
  // Degenerate sizes around the kMinMatch = 4 threshold.
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 17u}) {
    std::vector<std::uint8_t> s(n);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    cases.push_back(std::move(s));
  }
  return cases;
}

TEST(EncodeFastPaths, HuffmanFastMatchesReferenceByteForByte) {
  // 4096-symbol chunks split the larger cases with a ragged last chunk;
  // 0 selects the default 1<<18, one chunk per case.
  for (const auto& symbols : encode_symbol_cases()) {
    for (const std::size_t chunk : {std::size_t{4096}, std::size_t{0}}) {
      const auto fast = huffman_encode(symbols, nullptr, chunk);
      const auto reference =
          test::huffman_encode_chunked_reference(symbols, chunk ? chunk : 1u << 18);
      ASSERT_EQ(fast, reference) << "case size " << symbols.size() << ", chunk " << chunk;
      EXPECT_EQ(huffman_decode(fast), symbols);
    }
  }
}

TEST(EncodeFastPaths, LzssFastMatchesReferenceByteForByte) {
  // 64 KiB chunks split the larger cases with a ragged last chunk; 0
  // selects the default 1 MiB, one chunk per case.
  for (const auto& input : encode_byte_cases()) {
    for (const std::size_t chunk : {std::size_t{1} << 16, std::size_t{0}}) {
      const auto fast = lzss_encode(input, nullptr, chunk);
      const auto reference = test::lzss_encode_chunked_reference(input, chunk ? chunk : 1u << 20);
      ASSERT_EQ(fast, reference) << "case size " << input.size() << ", chunk " << chunk;
      EXPECT_EQ(lzss_decode(fast), input);
    }
  }
}

TEST(EncodeFastPaths, ChunkedContainersAreThreadCountIndependent) {
  Rng rng(77);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 200000; ++i) {
    symbols.push_back(32768 + static_cast<std::uint32_t>(rng.uniform_index(17)) - 8);
  }
  std::vector<std::uint8_t> bytes(1 << 20);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  std::memcpy(bytes.data() + 700000, bytes.data() + 31, 50000);

  const auto huff_serial = huffman_encode(symbols, nullptr, 1 << 14);
  const auto lzss_serial = lzss_encode(bytes, nullptr, 1 << 16);
  for (std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(huffman_encode(symbols, &pool, 1 << 14), huff_serial) << threads << " threads";
    EXPECT_EQ(lzss_encode(bytes, &pool, 1 << 16), lzss_serial) << threads << " threads";
  }
  EXPECT_EQ(huffman_decode(huff_serial), symbols);
  EXPECT_EQ(lzss_decode(lzss_serial), bytes);
}

TEST(EncodeFastPaths, PutPairMatchesTwoPuts) {
  Rng rng(11);
  BitWriter pair_writer;
  BitWriter put_writer;
  for (int i = 0; i < 2000; ++i) {
    const unsigned nbits_a = static_cast<unsigned>(rng.uniform_index(64));  // 0..63
    const unsigned nbits_b = static_cast<unsigned>(rng.uniform_index(65));  // 0..64
    const auto value_a = static_cast<std::uint64_t>(rng.uniform() * 1e18);
    const auto value_b = static_cast<std::uint64_t>(rng.uniform() * 1e18);
    pair_writer.put_pair(value_a, nbits_a, value_b, nbits_b);
    put_writer.put(value_a, nbits_a);
    put_writer.put(value_b, nbits_b);
  }
  EXPECT_EQ(pair_writer.bit_count(), put_writer.bit_count());
  EXPECT_EQ(pair_writer.finish(), put_writer.finish());
}

TEST(EncodeFastPaths, AppenderMatchesPutSequence) {
  Rng rng(13);
  std::vector<std::pair<std::uint64_t, unsigned>> writes;
  for (int i = 0; i < 5000; ++i) {
    const unsigned nbits = 1 + static_cast<unsigned>(rng.uniform_index(64));  // 1..64
    std::uint64_t value = static_cast<std::uint64_t>(rng.uniform() * 1e18);
    if (nbits < 64) value &= (1ull << nbits) - 1;  // Appender contract: pre-masked
    writes.emplace_back(value, nbits);
  }
  BitWriter plain;
  for (const auto& [v, n] : writes) plain.put(v, n);

  BitWriter fast;
  {
    BitWriter::Appender ap(fast);
    for (const auto& [v, n] : writes) ap.put(v, n);
  }  // destructor flushes
  EXPECT_EQ(fast.bit_count(), plain.bit_count());
  EXPECT_EQ(fast.finish(), plain.finish());

  // Interleaving appender bursts with direct writer use (flush between).
  BitWriter mixed;
  BitWriter::Appender ap(mixed);
  for (std::size_t i = 0; i < writes.size() / 2; ++i) ap.put(writes[i].first, writes[i].second);
  ap.flush();
  for (std::size_t i = writes.size() / 2; i < writes.size(); ++i) {
    mixed.put(writes[i].first, writes[i].second);
  }
  EXPECT_EQ(mixed.finish(), plain.finish());
}

TEST(EncodeFastPaths, ReserveBitsIsContentNeutral) {
  BitWriter reserved;
  BitWriter plain;
  reserved.reserve_bits(1 << 20);
  for (int i = 0; i < 1000; ++i) {
    reserved.put(static_cast<std::uint64_t>(i) * 2654435761u, 37);
    plain.put(static_cast<std::uint64_t>(i) * 2654435761u, 37);
  }
  EXPECT_EQ(reserved.finish(), plain.finish());
}

}  // namespace
}  // namespace cosmo
