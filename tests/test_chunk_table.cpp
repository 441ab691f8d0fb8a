/// \file test_chunk_table.cpp
/// \brief The shared chunk table: writer/parser round trips, the parser's
/// bounds checks on hostile tables, and the one trailing-bytes rule every
/// chunked container (HUFC, LZSC, FZC1) inherits from it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "codec/chunk_table.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fz/fz.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// A 3-byte header, then a table for \p sizes, then \p payload bytes.
std::vector<std::uint8_t> hand_built(const std::vector<std::uint32_t>& sizes,
                                     std::size_t payload) {
  std::vector<std::uint8_t> out = {0xAA, 0xBB, 0xCC};
  for (const auto s : sizes) put_u32(out, s);
  out.resize(out.size() + payload, 0x5A);
  return out;
}

TEST(ChunkTable, StagingWriterRoundTripsAtAnyThreadCount) {
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> chunks;
  for (const std::size_t n : {5u, 0u, 1u, 300u, 17u, 4096u, 2u}) {
    std::vector<std::uint8_t> c(n);
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    chunks.push_back(std::move(c));
  }
  std::vector<const std::uint8_t*> payloads;
  std::vector<std::size_t> sizes;
  for (const auto& c : chunks) {
    payloads.push_back(c.data());
    sizes.push_back(c.size());
  }
  std::vector<std::uint8_t> serial = {1, 2, 3, 4, 5};
  write_chunk_table(serial, 5, payloads, sizes, nullptr);
  for (const std::size_t threads : {2u, 3u}) {
    ThreadPool pool(threads);
    // A reused, larger buffer: bytes before `at` survive, the rest is
    // rewritten and the buffer ends exactly after the last payload.
    std::vector<std::uint8_t> reused(serial.size() + 100, 0xEE);
    std::copy(serial.begin(), serial.begin() + 5, reused.begin());
    write_chunk_table(reused, 5, payloads, sizes, &pool);
    EXPECT_EQ(reused, serial) << threads << " threads";
  }
  const ChunkTable table(serial, 5, chunks.size());
  ASSERT_EQ(table.size(), chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(std::vector<std::uint8_t>(table[c].begin(), table[c].end()), chunks[c]) << c;
  }
}

TEST(ChunkTable, DirectWriterMatchesStagingWriter) {
  const std::vector<std::vector<std::uint8_t>> chunks = {{1, 2, 3}, {}, {9}, {7, 7}};
  std::vector<const std::uint8_t*> payloads;
  std::vector<std::size_t> sizes;
  for (const auto& c : chunks) {
    payloads.push_back(c.data());
    sizes.push_back(c.size());
  }
  std::vector<std::uint8_t> staged = {0xAB};
  write_chunk_table(staged, 1, payloads, sizes, nullptr);

  std::vector<std::uint8_t> direct = {0xAB};
  ChunkTableWriter table(direct, chunks.size());
  for (const auto& c : chunks) {
    direct.insert(direct.end(), c.begin(), c.end());
    table.push(c.size());
  }
  EXPECT_EQ(direct, staged);
  EXPECT_THROW(table.push(1), InvalidArgument);  // more chunks than entries
}

TEST(ChunkTable, EmptyTableIsJustTheHeader) {
  const std::vector<std::uint8_t> bytes = {0xAA, 0xBB, 0xCC};
  EXPECT_EQ(ChunkTable(bytes, 3, 0).size(), 0u);
  EXPECT_THROW(ChunkTable(bytes, 4, 0), FormatError);  // header past the buffer
}

TEST(ChunkTable, TableLongerThanBufferRejected) {
  // Two chunks declared, but the buffer ends inside the second entry.
  auto bytes = hand_built({4}, 4);
  bytes.resize(3 + 4 + 2);
  EXPECT_THROW(ChunkTable(bytes, 3, 2), FormatError);
  EXPECT_THROW(ChunkTable(hand_built({1, 1}, 2), 3, 3), FormatError);
}

TEST(ChunkTable, SizesThatOverrunRejected) {
  EXPECT_NO_THROW(ChunkTable(hand_built({3, 5}, 8), 3, 2));
  EXPECT_THROW(ChunkTable(hand_built({3, 6}, 8), 3, 2), FormatError);
  // A size near 2^32 must not wrap the offset sum.
  EXPECT_THROW(ChunkTable(hand_built({0xFFFFFFFFu, 2}, 8), 3, 2), FormatError);
  EXPECT_THROW(ChunkTable(hand_built({2, 0xFFFFFFFFu}, 8), 3, 2), FormatError);
}

TEST(ChunkTable, SizesThatLeaveTrailingBytesRejected) {
  EXPECT_THROW(ChunkTable(hand_built({3, 4}, 8), 3, 2), FormatError);
  EXPECT_THROW(ChunkTable(hand_built({}, 1), 3, 0), FormatError);
}

TEST(ChunkTable, CountNear2To32Rejected) {
  const auto bytes = hand_built({3, 5}, 8);
  for (const std::size_t n : {std::size_t{0xFFFFFFFFu}, std::size_t{0xFFFFFFFEu},
                              std::size_t{1} << 32, std::numeric_limits<std::size_t>::max()}) {
    EXPECT_THROW(ChunkTable(bytes, 3, n), FormatError) << n;
  }
}

TEST(ChunkTable, EveryContainerRejectsTrailingBytes) {
  Rng rng(5);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.uniform_index(40));
  std::vector<std::uint8_t> raw(50000);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::uint8_t>(i % 97 / 3);
  std::vector<float> field(4096);
  for (auto& v : field) v = static_cast<float>(rng.normal());
  fz::Params fz_params;
  fz_params.abs_error_bound = 0.01;
  fz_params.chunk_values = 1000;

  auto huff = huffman_encode(symbols, nullptr, 4096);
  auto lz = lzss_encode(raw, nullptr, 8192);
  auto fz_bytes = fz::compress(field, Dims::d1(field.size()), fz_params);
  ASSERT_EQ(huffman_decode(huff), symbols);
  ASSERT_EQ(lzss_decode(lz), raw);
  ASSERT_NO_THROW(fz::decompress(fz_bytes));
  huff.push_back(0);
  lz.push_back(0);
  fz_bytes.push_back(0);
  EXPECT_THROW(huffman_decode(huff), FormatError);
  EXPECT_THROW(lzss_decode(lz), FormatError);
  EXPECT_THROW(fz::decompress(fz_bytes), FormatError);
}

}  // namespace
}  // namespace cosmo
