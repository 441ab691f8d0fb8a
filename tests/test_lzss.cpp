#include <gtest/gtest.h>

#include <algorithm>

#include "codec/lzss.hpp"
#include "common/error.hpp"
#include "lzss_reference.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n, std::size_t alphabet) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_index(alphabet));
  return out;
}

// ---------- LZSS ----------

TEST(Lzss, RoundTripText) {
  const std::string text =
      "abcabcabcabc the quick brown fox jumps over the lazy dog "
      "the quick brown fox jumps over the lazy dog";
  const std::vector<std::uint8_t> input(text.begin(), text.end());
  const auto encoded = lzss_encode(input);
  EXPECT_EQ(lzss_decode(encoded), input);
  EXPECT_LT(encoded.size(), input.size());
}

TEST(Lzss, EmptyInput) {
  const std::vector<std::uint8_t> input;
  EXPECT_EQ(lzss_decode(lzss_encode(input)), input);
}

TEST(Lzss, TinyInputsBelowMinMatch) {
  for (std::size_t n = 1; n <= 5; ++n) {
    const std::vector<std::uint8_t> input(n, 0xAB);
    EXPECT_EQ(lzss_decode(lzss_encode(input)), input);
  }
}

TEST(Lzss, HighlyRepetitiveCompressesWell) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 4000; ++i) input.push_back(static_cast<std::uint8_t>(i % 16));
  const auto encoded = lzss_encode(input);
  EXPECT_EQ(lzss_decode(encoded), input);
  EXPECT_LT(encoded.size(), input.size() / 4);
}

TEST(Lzss, IncompressibleDataSurvives) {
  Rng rng(22);
  const auto input = random_bytes(rng, 20000, 256);
  const auto encoded = lzss_encode(input);
  EXPECT_EQ(lzss_decode(encoded), input);
  // Random bytes cost ~9 bits per literal; bounded expansion.
  EXPECT_LT(encoded.size(), input.size() * 9 / 8 + 64);
}

TEST(Lzss, OverlappingMatchesDecodeCorrectly) {
  // "aaaa..." forces matches that overlap their own output.
  const std::vector<std::uint8_t> input(1000, 'a');
  EXPECT_EQ(lzss_decode(lzss_encode(input)), input);
}

TEST(Lzss, LongRangeMatchWithinWindow) {
  Rng rng(23);
  auto block = random_bytes(rng, 800, 256);
  // block, 30000 filler bytes, then block again: a repeat within the 64K window.
  std::vector<std::uint8_t> input(2 * block.size() + 30000, 7);
  std::copy(block.begin(), block.end(), input.begin());
  std::copy(block.begin(), block.end(), input.end() - static_cast<std::ptrdiff_t>(block.size()));
  const auto encoded = lzss_encode(input);
  EXPECT_EQ(lzss_decode(encoded), input);
}

TEST(Lzss, RandomizedProperty) {
  Rng rng(24);
  for (int round = 0; round < 20; ++round) {
    const std::size_t alphabet = 1 + rng.uniform_index(255);
    const auto input = random_bytes(rng, rng.uniform_index(30000), alphabet);
    EXPECT_EQ(lzss_decode(lzss_encode(input)), input) << "round " << round;
  }
}

TEST(Lzss, LegacyStandaloneStreamsStillDecode) {
  // No encoder writes a bare LZSS stream any more; the decoder still reads
  // the ones older SZ and SZTM streams carry.
  Rng rng(25);
  for (const std::size_t n : {0u, 3u, 4000u, 70000u}) {
    const auto input = random_bytes(rng, n, 6);
    EXPECT_EQ(lzss_decode(test::lzss_encode_reference(input)), input) << n;
  }
}

TEST(Lzss, BadMagicThrows) {
  std::vector<std::uint8_t> bad = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW(lzss_decode(bad), FormatError);
}

TEST(Lzss, TruncatedStreamThrows) {
  const std::vector<std::uint8_t> input(1000, 'x');
  auto encoded = lzss_encode(input);
  encoded.resize(13);  // magic + size survive, payload gone
  EXPECT_THROW(lzss_decode(encoded), FormatError);
}

}  // namespace
}  // namespace cosmo
