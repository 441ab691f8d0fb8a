#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cmath>

#include "codec/bitstream.hpp"
#include "random/rng.hpp"
#include "zfp/block_codec.hpp"

namespace cosmo::zfp {
namespace {

TEST(ZfpLift, InverseUndoesForwardWithinRoundoff) {
  // The ZFP lifting steps use arithmetic right shifts, so each step can
  // drop one low-order bit when a sum is odd: the pair is inverse only up
  // to a few units in the last place — negligible against 30-bit
  // significands, and exactly the behavior of the reference transform.
  Rng rng(81);
  for (int round = 0; round < 200; ++round) {
    std::array<Int, 4> values{};
    for (auto& v : values) {
      // Stay within the headroom the transform assumes (|x| < 2^30).
      v = static_cast<Int>(rng.uniform(-5e8, 5e8));
    }
    auto work = values;
    fwd_lift(work.data(), 1);
    inv_lift(work.data(), 1);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(std::abs(work[i] - values[i]), 8) << "round " << round << " i " << i;
    }
  }
}

TEST(ZfpLift, ExactWhenLowBitsClear) {
  // With the low 4 bits clear no shift drops information: exact inverse.
  Rng rng(811);
  for (int round = 0; round < 200; ++round) {
    std::array<Int, 4> values{};
    for (auto& v : values) v = static_cast<Int>(rng.uniform(-5e7, 5e7)) << 4;
    auto work = values;
    fwd_lift(work.data(), 1);
    inv_lift(work.data(), 1);
    EXPECT_EQ(work, values) << "round " << round;
  }
}

TEST(ZfpLift, StridedAccess) {
  std::array<Int, 16> values{};
  Rng rng(82);
  for (auto& v : values) v = static_cast<Int>(rng.uniform(-1e6, 1e6)) << 4;
  auto work = values;
  fwd_lift(work.data() + 2, 4);  // column 2 of a 4x4 block
  inv_lift(work.data() + 2, 4);
  EXPECT_EQ(work, values);
  // Untouched lanes must be untouched.
  EXPECT_EQ(work[0], values[0]);
  EXPECT_EQ(work[3], values[3]);
}

TEST(ZfpLift, ConstantBlockConcentratesInDc) {
  std::array<Int, 4> values = {1024, 1024, 1024, 1024};
  fwd_lift(values.data(), 1);
  EXPECT_EQ(values[0], 1024);  // DC term keeps the average
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(values[2], 0);
  EXPECT_EQ(values[3], 0);
}

TEST(ZfpNegabinary, RoundTrip) {
  Rng rng(83);
  for (int round = 0; round < 1000; ++round) {
    const Int x = static_cast<Int>(rng.next_u64());
    EXPECT_EQ(uint2int(int2uint(x)), x);
  }
  EXPECT_EQ(uint2int(int2uint(0)), 0);
  EXPECT_EQ(uint2int(int2uint(INT32_MIN)), INT32_MIN);
  EXPECT_EQ(uint2int(int2uint(INT32_MAX)), INT32_MAX);
}

TEST(ZfpNegabinary, SmallMagnitudeHasSmallCode) {
  // Negabinary maps small |x| to small codes, which the bit-plane coder
  // relies on: high planes stay zero.
  EXPECT_LT(int2uint(1), 16u);
  EXPECT_LT(int2uint(-1), 16u);
  EXPECT_LT(int2uint(5), 64u);
  EXPECT_GT(int2uint(1 << 20), 1u << 19);
}

TEST(ZfpPermutation, IsAPermutation) {
  for (const int rank : {1, 2, 3}) {
    const auto perm = sequency_permutation(rank);
    const std::size_t n = rank == 1 ? 4u : rank == 2 ? 16u : 64u;
    ASSERT_EQ(perm.size(), n);
    std::vector<bool> seen(n, false);
    for (const auto p : perm) {
      ASSERT_LT(p, n);
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(ZfpPermutation, OrderedByTotalSequency) {
  const auto perm = sequency_permutation(3);
  auto degree = [](std::uint16_t idx) {
    return (idx & 3u) + ((idx >> 2) & 3u) + ((idx >> 4) & 3u);
  };
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(degree(perm[i - 1]), degree(perm[i]));
  }
  EXPECT_EQ(perm[0], 0);  // DC first
}

TEST(ZfpInts, RoundTripUnbounded) {
  Rng rng(84);
  std::array<UInt, 64> data{};
  for (auto& v : data) v = static_cast<UInt>(rng.next_u64());
  BitWriter bw;
  const unsigned maxbits = 64 * 32 + 64;
  const unsigned written = encode_ints(bw, maxbits, kIntPrec, data);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  std::array<UInt, 64> out{};
  const unsigned read = decode_ints(br, maxbits, kIntPrec, out);
  EXPECT_EQ(written, read);
  EXPECT_EQ(out, data);
}

TEST(ZfpInts, TruncatedBudgetIsPrefixDecodable) {
  Rng rng(85);
  std::array<UInt, 64> data{};
  for (auto& v : data) v = static_cast<UInt>(rng.next_u64() >> 8);
  double prev_err = -1.0;
  for (const unsigned budget : {64u, 256u, 1024u, 4096u}) {
    BitWriter bw;
    const unsigned written = encode_ints(bw, budget, kIntPrec, data);
    EXPECT_LE(written, budget);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    std::array<UInt, 64> out{};
    const unsigned read = decode_ints(br, budget, kIntPrec, out);
    // The decoder mirrors the encoder's control flow exactly.
    EXPECT_EQ(read, written) << "budget " << budget;
    // Error (in two's complement after negabinary unmapping) shrinks as the
    // embedded stream is extended. Plane truncation in negabinary is not
    // strictly monotone point-wise, so allow a factor-2 slack between
    // adjacent budgets; the trend must still be strongly downward.
    double max_err = 0.0;
    for (std::size_t i = 0; i < 64; ++i) {
      max_err = std::max(max_err, std::fabs(static_cast<double>(uint2int(out[i])) -
                                            static_cast<double>(uint2int(data[i]))));
    }
    if (prev_err >= 0.0) {
      EXPECT_LE(max_err, prev_err * 2.0) << "budget " << budget;
    }
    prev_err = max_err;
  }
  // With a full budget the reconstruction is exact.
  EXPECT_EQ(prev_err, 0.0);
}

TEST(ZfpInts, ZeroDataCostsAlmostNothing) {
  std::array<UInt, 64> data{};
  BitWriter bw;
  const unsigned written = encode_ints(bw, 4096, kIntPrec, data);
  // One group-test bit per plane.
  EXPECT_LE(written, kIntPrec);
}

TEST(ZfpBlockFloat, RoundTripHighRate) {
  Rng rng(86);
  for (const int rank : {1, 2, 3}) {
    const std::size_t n = rank == 1 ? 4u : rank == 2 ? 16u : 64u;
    std::vector<float> block(n);
    for (auto& v : block) v = static_cast<float>(rng.uniform(-100.0, 100.0));
    BitWriter bw;
    const unsigned maxbits = static_cast<unsigned>(n) * 32 + 16;
    encode_block_float(bw, block, rank, maxbits, kIntPrec, INT_MIN, false);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    std::vector<float> out(n);
    decode_block_float(br, out, rank, maxbits, kIntPrec, INT_MIN, false);
    for (std::size_t i = 0; i < n; ++i) {
      // 30-bit fixed point over a ~2^7 exponent: tiny relative error.
      EXPECT_NEAR(out[i], block[i], 1e-4) << "rank " << rank << " i " << i;
    }
  }
}

TEST(ZfpBlockFloat, AllZeroBlockIsOneBit) {
  std::vector<float> block(64, 0.0f);
  BitWriter bw;
  const unsigned used = encode_block_float(bw, block, 3, 4096, kIntPrec, INT_MIN, false);
  EXPECT_EQ(used, 1u);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  std::vector<float> out(64, 1.0f);
  decode_block_float(br, out, 3, 4096, kIntPrec, INT_MIN, false);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(ZfpBlockFloat, FixedRatePadsExactly) {
  Rng rng(87);
  std::vector<float> block(64);
  for (auto& v : block) v = static_cast<float>(rng.normal());
  for (const unsigned maxbits : {64u, 256u, 512u}) {
    BitWriter bw;
    const unsigned used =
        encode_block_float(bw, block, 3, maxbits, kIntPrec, INT_MIN, true);
    EXPECT_EQ(used, maxbits);
    EXPECT_EQ(bw.bit_count(), maxbits);
  }
}

TEST(ZfpBlockFloat, PrecisionForBehaviour) {
  EXPECT_EQ(precision_for(INT_MIN, 32, 0, 3), 0u);
  EXPECT_EQ(precision_for(10, 32, INT_MIN, 3), 32u);  // unbounded accuracy
  EXPECT_EQ(precision_for(0, 32, 0, 3), 8u);          // 2*(3+1) guard bits
  EXPECT_EQ(precision_for(0, 32, 10, 3), 0u);         // tolerance above data
}

TEST(ZfpBlockFloat, ExtremeExponentsSurvive) {
  std::vector<float> block(64, 0.0f);
  block[0] = 1e30f;
  block[1] = -1e30f;
  block[2] = 1e-30f;
  BitWriter bw;
  const unsigned maxbits = 64 * 32 + 16;
  encode_block_float(bw, block, 3, maxbits, kIntPrec, INT_MIN, false);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  std::vector<float> out(64);
  decode_block_float(br, out, 3, maxbits, kIntPrec, INT_MIN, false);
  EXPECT_NEAR(out[0] / 1e30f, 1.0f, 1e-4);
  EXPECT_NEAR(out[1] / -1e30f, 1.0f, 1e-4);
  // 1e-30 is 60 orders below the block max: lost to exponent alignment.
  EXPECT_NEAR(out[2], 0.0f, 1e24);
}

}  // namespace
}  // namespace cosmo::zfp
