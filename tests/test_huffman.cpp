#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codec/huffman.hpp"
#include "huffman_reference.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

TEST(Huffman, RoundTripSimple) {
  const std::vector<std::uint32_t> symbols = {1, 1, 2, 3, 1, 2, 1, 1, 4};
  EXPECT_EQ(huffman_decode(huffman_encode(symbols)), symbols);
}

TEST(Huffman, EmptyInput) {
  const std::vector<std::uint32_t> symbols;
  EXPECT_EQ(huffman_decode(huffman_encode(symbols)), symbols);
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> symbols(1000, 42);
  const auto encoded = huffman_encode(symbols);
  EXPECT_EQ(huffman_decode(encoded), symbols);
  // 1000 symbols at 1 bit each plus header: far below raw 4 bytes/symbol.
  EXPECT_LT(encoded.size(), 200u);
}

TEST(Huffman, SingleOccurrence) {
  const std::vector<std::uint32_t> symbols = {7};
  EXPECT_EQ(huffman_decode(huffman_encode(symbols)), symbols);
}

TEST(Huffman, LargeSparseSymbols) {
  // SZ quantization codes live near the radius (2^15); exercise large values.
  std::vector<std::uint32_t> symbols;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(32768 + static_cast<std::uint32_t>(rng.uniform_index(7)) - 3);
  }
  EXPECT_EQ(huffman_decode(huffman_encode(symbols)), symbols);
}

TEST(Huffman, SkewedDistributionCompresses) {
  // 95% one symbol: entropy ~0.4 bits/symbol; Huffman should get near 1 bit.
  std::vector<std::uint32_t> symbols;
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(rng.uniform() < 0.95 ? 100u
                                           : 100u + static_cast<std::uint32_t>(
                                                        1 + rng.uniform_index(10)));
  }
  const auto encoded = huffman_encode(symbols);
  EXPECT_EQ(huffman_decode(encoded), symbols);
  const double bits_per_symbol = encoded.size() * 8.0 / symbols.size();
  EXPECT_LT(bits_per_symbol, 1.6);
}

TEST(Huffman, UniformDistributionNearLog2N) {
  std::vector<std::uint32_t> symbols;
  Rng rng(5);
  for (int i = 0; i < 16000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(16)));
  }
  const auto encoded = huffman_encode(symbols);
  EXPECT_EQ(huffman_decode(encoded), symbols);
  const double bits_per_symbol = encoded.size() * 8.0 / symbols.size();
  EXPECT_NEAR(bits_per_symbol, 4.0, 0.3);  // log2(16) = 4
}

TEST(Huffman, RandomizedRoundTripProperty) {
  Rng rng(6);
  for (int round = 0; round < 20; ++round) {
    const std::size_t alpha = 1 + rng.uniform_index(200);
    const std::size_t count = rng.uniform_index(3000);
    std::vector<std::uint32_t> symbols;
    symbols.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(alpha) * 977));
    }
    EXPECT_EQ(huffman_decode(huffman_encode(symbols)), symbols) << "round " << round;
  }
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  const std::vector<std::uint64_t> freqs = {50, 20, 10, 10, 5, 5};
  const auto lengths = huffman_code_lengths(freqs);
  double kraft = 0.0;
  for (const auto len : lengths) {
    ASSERT_GT(len, 0u);
    kraft += std::pow(2.0, -static_cast<double>(len));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-12);  // Huffman codes are complete
}

TEST(Huffman, CodeLengthsOrderedByFrequency) {
  const std::vector<std::uint64_t> freqs = {100, 1, 50, 2};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
  EXPECT_LE(lengths[3], lengths[1]);
}

TEST(Huffman, ZeroFrequencySymbolsGetNoCode) {
  const std::vector<std::uint64_t> freqs = {10, 0, 5};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_GT(lengths[0], 0u);
  EXPECT_EQ(lengths[1], 0u);
  EXPECT_GT(lengths[2], 0u);
}

/// The library builds the tree with a two-queue merge; the oracle with the
/// binary heap it replaced. Equal lengths on every histogram keep every
/// codebook, and so every stream, unchanged.
TEST(Huffman, CodeLengthsMatchHeapOracle) {
  const auto matches = [](const std::vector<std::uint64_t>& freqs) {
    return huffman_code_lengths(freqs) == test::huffman_reference_code_lengths(freqs);
  };

  // Seeded histograms: alphabets of 1-5000 symbols (log-uniform), with
  // tie-heavy, skewed, wide and sparse frequency draws, and zeros between
  // symbols in a quarter of them.
  Rng rng(2025);
  for (int round = 0; round < 10000; ++round) {
    const auto size = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::exp(rng.uniform(0.0, std::log(5001.0)))), 1, 5000);
    const std::uint64_t kind = rng.uniform_index(4);
    const bool holes = rng.uniform_index(4) == 0;
    const double width = 1.0 + rng.uniform(0, 50);
    std::vector<std::uint64_t> freqs(size);
    for (std::size_t i = 0; i < size; ++i) {
      switch (kind) {
        case 0: freqs[i] = 1 + rng.uniform_index(100); break;  // many ties
        case 1: {  // quantization-code-like peak around the centre
          const double d = std::fabs(static_cast<double>(i) - static_cast<double>(size) / 2);
          freqs[i] = 1 + static_cast<std::uint64_t>(1e6 * std::exp(-d / width));
          break;
        }
        case 2: freqs[i] = 1 + rng.uniform_index(std::uint64_t{1} << 32); break;
        default: freqs[i] = rng.uniform_index(3); break;  // mostly 0, 1, 2
      }
      if (holes && rng.uniform_index(3) == 0) freqs[i] = 0;
    }
    ASSERT_TRUE(matches(freqs)) << "round " << round;
  }

  // Adversarial cases.
  EXPECT_TRUE(matches({})) << "empty";
  EXPECT_TRUE(matches({0, 0, 0})) << "all zero";
  EXPECT_TRUE(matches({9})) << "one symbol";
  EXPECT_TRUE(matches({0, 0, 9, 0})) << "one symbol between zeros";
  EXPECT_TRUE(matches({1, 1})) << "two equal symbols";
  EXPECT_TRUE(matches({0, 3, 0, 1})) << "two symbols between zeros";
  EXPECT_TRUE(matches({0, 5, 0, 0, 5, 0, 3, 0, 8, 0})) << "zeros between symbols";
  for (const std::size_t size : {2u, 3u, 5u, 64u, 1000u, 4096u, 5000u}) {
    EXPECT_TRUE(matches(std::vector<std::uint64_t>(size, 7))) << "all equal, " << size;
  }
  std::vector<std::uint64_t> pow2;
  for (unsigned i = 0; i < 40; ++i) pow2.push_back(std::uint64_t{1} << i);
  EXPECT_TRUE(matches(pow2)) << "powers of two, ascending";
  std::reverse(pow2.begin(), pow2.end());
  EXPECT_TRUE(matches(pow2)) << "powers of two, descending";
  // Fibonacci frequencies build the deepest tree: 59 of them reach the
  // 58-bit code-length limit.
  std::vector<std::uint64_t> fib = {1, 1};
  while (fib.size() < 59) fib.push_back(fib[fib.size() - 1] + fib[fib.size() - 2]);
  EXPECT_TRUE(matches(fib)) << "fibonacci, ascending";
  const auto deepest = huffman_code_lengths(fib);
  EXPECT_EQ(*std::max_element(deepest.begin(), deepest.end()), 58u);
  std::reverse(fib.begin(), fib.end());
  EXPECT_TRUE(matches(fib)) << "fibonacci, descending";
}

TEST(Huffman, AverageLengthWithinOneBitOfEntropy) {
  const std::vector<std::uint64_t> freqs = {60, 25, 10, 4, 1};
  const auto lengths = huffman_code_lengths(freqs);
  std::uint64_t total = 0;
  double avg_len = 0.0;
  for (std::size_t i = 0; i < freqs.size(); ++i) total += freqs[i];
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    avg_len += static_cast<double>(freqs[i]) / static_cast<double>(total) * lengths[i];
  }
  const double h = shannon_entropy_bits(freqs);
  EXPECT_GE(avg_len + 1e-12, h);
  EXPECT_LE(avg_len, h + 1.0);
}

TEST(Huffman, ShannonEntropyKnownValues) {
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({4, 4, 4, 4}), 2.0);
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({10}), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({}), 0.0);
}

TEST(Huffman, CorruptStreamThrows) {
  const std::vector<std::uint32_t> symbols = {1, 2, 3, 1, 2, 3};
  auto encoded = huffman_encode(symbols);
  encoded[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(huffman_decode(encoded), FormatError);
}

TEST(Huffman, TruncatedStreamThrows) {
  std::vector<std::uint32_t> symbols(100);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<std::uint32_t>(i % 7);
  }
  auto encoded = huffman_encode(symbols);
  encoded.resize(encoded.size() / 2);
  EXPECT_THROW(huffman_decode(encoded), FormatError);
}

}  // namespace
}  // namespace cosmo
