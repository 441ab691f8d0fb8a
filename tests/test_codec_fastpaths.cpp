/// \file test_codec_fastpaths.cpp
/// \brief Safety and equivalence coverage for the single-core decode fast
/// paths: the table-driven Huffman decoder vs the canonical reference, the
/// batched ZFP group-test scan, slice-by-8 CRC32 vs the byte loop, and
/// malformed-stream behavior (truncation/corruption must throw FormatError,
/// never read out of bounds — run under check.sh --asan).
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "codec/bitstream.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/thread_pool.hpp"
#include "fz/fz.hpp"
#include "huffman_reference.hpp"
#include "io/crc32.hpp"
#include "lzss_reference.hpp"
#include "random/rng.hpp"
#include "zfp/block_codec.hpp"
#include "zfp/zfp.hpp"

namespace cosmo {
namespace {

/// Symbol streams covering the fast-table sweet spot (short codes), the
/// fallback (long codes from wide alphabets), and the degenerate cases.
std::vector<std::vector<std::uint32_t>> fastpath_symbol_cases() {
  std::vector<std::vector<std::uint32_t>> cases;
  Rng rng(42);
  // Near-radius quantization-code cluster (the SZ production shape).
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 20000; ++i) {
      s.push_back(32768 + static_cast<std::uint32_t>(rng.uniform_index(9)) - 4);
    }
    cases.push_back(std::move(s));
  }
  // Uniform over 8192 symbols: code lengths ~13 > kFastBits, so nearly
  // every symbol takes the canonical fallback.
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 30000; ++i) {
      s.push_back(static_cast<std::uint32_t>(rng.uniform_index(8192)));
    }
    cases.push_back(std::move(s));
  }
  // Skewed mix: a dominant 1-bit symbol plus a long tail, so table hits and
  // fallback interleave within one stream.
  {
    std::vector<std::uint32_t> s;
    for (int i = 0; i < 30000; ++i) {
      s.push_back(rng.uniform() < 0.6
                      ? 7u
                      : static_cast<std::uint32_t>(rng.uniform_index(5000)));
    }
    cases.push_back(std::move(s));
  }
  cases.push_back({});      // empty
  cases.push_back({1234});  // single occurrence
  return cases;
}

TEST(CodecFastPaths, HuffmanTableMatchesReferenceDecoder) {
  for (const auto& symbols : fastpath_symbol_cases()) {
    const auto single = test::huffman_encode_reference(symbols);  // legacy HUFF
    EXPECT_EQ(huffman_decode(single), symbols);
    EXPECT_EQ(test::huffman_decode_reference(single), symbols);

    const auto chunked = huffman_encode(symbols, nullptr, 4096);
    EXPECT_EQ(huffman_decode(chunked), symbols);
    EXPECT_EQ(test::huffman_decode_reference(chunked), symbols);
  }
}

TEST(CodecFastPaths, HuffmanLongCodesExerciseFallback) {
  // Fibonacci-like frequencies force a deep Huffman tree: max code length
  // well past the 12-bit table, so decode must mix table hits and fallback.
  std::vector<std::uint32_t> symbols;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::uint32_t sym = 0; sym < 24; ++sym) {
    for (std::uint64_t i = 0; i < a && symbols.size() < 60000; ++i) {
      symbols.push_back(sym * 31u);
    }
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  std::vector<std::uint64_t> freqs(24 * 31, 0);
  for (const auto s : symbols) ++freqs[s];
  unsigned max_len = 0;
  for (const unsigned len : huffman_code_lengths(freqs)) max_len = std::max(max_len, len);
  ASSERT_GT(max_len, 12u) << "distribution no longer exercises the fallback";

  const auto encoded = huffman_encode(symbols);
  EXPECT_EQ(huffman_decode(encoded), symbols);
  EXPECT_EQ(test::huffman_decode_reference(encoded), symbols);
}

TEST(CodecFastPaths, HuffmanDecodeWrapperUsesPool) {
  std::vector<std::uint32_t> symbols;
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(300)));
  }
  const auto chunked = huffman_encode(symbols, nullptr, 4096);
  ThreadPool pool(3);
  EXPECT_EQ(huffman_decode(chunked, &pool), symbols);
  EXPECT_EQ(huffman_decode(chunked, &pool), huffman_decode(chunked, nullptr));
}

TEST(CodecFastPaths, TruncatedHuffmanThrowsEverywhere) {
  std::vector<std::uint32_t> symbols;
  Rng rng(10);
  for (int i = 0; i < 8000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(500)));
  }
  for (const bool chunked : {false, true}) {
    const auto encoded =
        chunked ? huffman_encode(symbols, nullptr, 1024) : test::huffman_encode_reference(symbols);
    // Cut in the header, in the chunk table, and at several payload depths.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{10}, encoded.size() / 4, encoded.size() / 2,
          encoded.size() - 3}) {
      auto cut = encoded;
      cut.resize(keep);
      EXPECT_THROW(huffman_decode(cut), FormatError) << "chunked=" << chunked << " keep=" << keep;
      EXPECT_THROW(test::huffman_decode_reference(cut), FormatError)
          << "chunked=" << chunked << " keep=" << keep;
    }
  }
}

TEST(CodecFastPaths, OverfullHuffmanHeaderRejected) {
  // Hand-built single-stream container whose header claims three 1-bit
  // codes — an overfull (Kraft > 1) length set no encoder can emit. The
  // canonical rebuild must reject it instead of decoding garbage.
  BitWriter bw;
  bw.put(0x48554646u, 32);  // "HUFF"
  bw.put(10, 64);           // symbol count
  bw.put(3, 32);            // alphabet size
  for (std::uint32_t sym = 0; sym < 3; ++sym) {
    bw.put(sym, 32);
    bw.put(1, 6);  // all length 1
  }
  bw.put(0, 64);  // payload filler (content irrelevant; the header must throw)
  const auto bytes = bw.finish();
  EXPECT_THROW(huffman_decode(bytes), FormatError);
  EXPECT_THROW(test::huffman_decode_reference(bytes), FormatError);
}

TEST(CodecFastPaths, TruncatedLzssThrows) {
  std::vector<std::uint8_t> input(50000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i * 7) % 37);
  }
  for (const bool chunked : {false, true}) {
    const auto encoded =
        chunked ? lzss_encode(input, nullptr, 8192) : test::lzss_encode_reference(input);
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{11}, encoded.size() / 3, encoded.size() - 2}) {
      auto cut = encoded;
      cut.resize(keep);
      EXPECT_THROW(lzss_decode(cut), FormatError) << "chunked=" << chunked << " keep=" << keep;
    }
  }
}

TEST(CodecFastPaths, TruncatedZfpThrows) {
  const Dims dims = Dims::d3(16, 16, 16);
  std::vector<float> data(dims.count());
  Rng rng(11);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  zfp::Params params;
  params.rate = 8.0;
  const auto encoded = zfp::compress(data, dims, params);
  for (const std::size_t keep :
       {std::size_t{4}, encoded.size() / 4, encoded.size() / 2, encoded.size() - 1}) {
    auto cut = encoded;
    cut.resize(keep);
    EXPECT_THROW(zfp::decompress(cut), FormatError) << "keep=" << keep;
  }
}

TEST(CodecFastPaths, ZfpDecodeIntsMirrorsEncodeBudget) {
  // The batched group-test scan must consume exactly the bits the per-bit
  // coder wrote, for any budget — including budgets that cut a block off
  // mid-plane. Equal return values pin the consumed-bit accounting.
  Rng rng(12);
  for (int round = 0; round < 60; ++round) {
    std::array<zfp::UInt, 64> block{};
    const unsigned magnitude = 1 + static_cast<unsigned>(rng.uniform_index(30));
    for (auto& v : block) {
      v = static_cast<zfp::UInt>(rng.next_u64() & ((1ull << magnitude) - 1));
    }
    const unsigned maxprec = 1 + static_cast<unsigned>(rng.uniform_index(zfp::kIntPrec));
    const unsigned maxbits = 1 + static_cast<unsigned>(rng.uniform_index(900));

    BitWriter bw;
    const unsigned wrote = zfp::encode_ints(bw, maxbits, maxprec,
                                            std::span<const zfp::UInt>(block.data(), 64));
    const auto bytes = bw.finish();
    BitReader br(bytes);
    std::array<zfp::UInt, 64> decoded{};
    const unsigned read = zfp::decode_ints(br, maxbits, maxprec,
                                           std::span<zfp::UInt>(decoded.data(), 64));
    EXPECT_EQ(wrote, read) << "round " << round;
    EXPECT_EQ(br.position(), wrote) << "round " << round;
  }
}

TEST(CodecFastPaths, BitshuffleMatchesScalarReference) {
  // Reference: the naive per-bit transpose the plane kernel implements in
  // byte-oriented form. Any divergence is a stream format break.
  auto reference_shuffle = [](std::span<const std::uint16_t> codes) {
    const std::size_t plane_bytes = (codes.size() + 7) / 8;
    std::vector<std::uint8_t> planes(16 * plane_bytes, 0);
    for (std::size_t bit = 0; bit < 16; ++bit) {
      for (std::size_t k = 0; k < codes.size(); ++k) {
        if ((codes[k] >> bit) & 1u) {
          planes[bit * plane_bytes + (k >> 3)] |=
              static_cast<std::uint8_t>(1u << (k & 7));
        }
      }
    }
    return planes;
  };

  Rng rng(14);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 1000u, 4099u}) {
    std::vector<std::uint16_t> codes(n);
    for (auto& c : codes) c = static_cast<std::uint16_t>(rng.next_u64());
    const auto planes = fz::bitshuffle(codes);
    EXPECT_EQ(planes, reference_shuffle(codes)) << "n=" << n;
    EXPECT_EQ(fz::bitunshuffle(planes, n), codes) << "n=" << n;
  }
}

TEST(CodecFastPaths, ZeroRunExtremes) {
  // All-zero input: bitmap only, no payload groups.
  const std::vector<std::uint8_t> zeros(1024, 0);
  const auto zenc = fz::zero_run_encode(zeros);
  EXPECT_LT(zenc.size(), zeros.size() / 4);
  EXPECT_EQ(fz::zero_run_decode(zenc), zeros);

  // All-nonzero input: every group stored, bounded overhead.
  std::vector<std::uint8_t> dense(1024);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<std::uint8_t>(i | 1u);
  }
  const auto denc = fz::zero_run_encode(dense);
  EXPECT_GE(denc.size(), dense.size());
  EXPECT_LT(denc.size(), dense.size() + dense.size() / 8 + 64);
  EXPECT_EQ(fz::zero_run_decode(denc), dense);

  // Lengths that don't fill the last 16-byte group round-trip too.
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 100u}) {
    std::vector<std::uint8_t> buf(n, 0xAB);
    EXPECT_EQ(fz::zero_run_decode(fz::zero_run_encode(buf)), buf) << "n=" << n;
  }
}

TEST(CodecFastPaths, TruncatedFzThrows) {
  const Dims dims = Dims::d3(16, 16, 16);
  std::vector<float> data(dims.count());
  Rng rng(15);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  fz::Params params;
  params.abs_error_bound = 0.05;
  const auto encoded = fz::compress(data, dims, params);
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, encoded.size() / 4, encoded.size() / 2,
        encoded.size() - 1}) {
    auto cut = encoded;
    cut.resize(keep);
    EXPECT_THROW(fz::decompress(cut), FormatError) << "keep=" << keep;
  }
  // Wrong magic must be rejected before any size fields are trusted.
  auto bad = encoded;
  bad[0] ^= 0xFFu;
  EXPECT_THROW(fz::decompress(bad), FormatError);
}

TEST(CodecFastPaths, Crc32MatchesByteAtATimeReference) {
  // Reference: the classic one-table byte loop the slice-by-8 kernel
  // replaced. Any divergence is a checksum format break.
  auto reference_crc = [](const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
  };

  Rng rng(13);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());

  // Sizes straddling the 8-byte kernel boundary, plus unaligned starts.
  for (const std::size_t size : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 1000u, 4096u}) {
    for (const std::size_t offset : {0u, 1u, 5u}) {
      if (offset + size > buf.size()) continue;
      EXPECT_EQ(crc32(buf.data() + offset, size), reference_crc(buf.data() + offset, size, 0))
          << "size=" << size << " offset=" << offset;
    }
  }

  // Incremental (seeded) computation splits anywhere in the buffer.
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (const std::size_t split : {1u, 7u, 8u, 100u, 4000u}) {
    const std::uint32_t part = crc32(buf.data() + split, buf.size() - split,
                                     crc32(buf.data(), split));
    EXPECT_EQ(part, whole) << "split=" << split;
  }
  EXPECT_EQ(whole, reference_crc(buf.data(), buf.size(), 0));
}

}  // namespace
}  // namespace cosmo
