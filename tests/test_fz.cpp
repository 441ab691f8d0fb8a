/// \file test_fz.cpp
/// \brief FZ codec contract: the absolute error bound holds on both
/// datasets' field shapes, streams are byte-identical for any thread
/// count (fixed chunk geometry), the stage primitives round-trip, stats
/// are consistent, and dims survive the stream.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/thread_pool.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "fz/fz.hpp"
#include "random/rng.hpp"

namespace cosmo {
namespace {

void expect_bound_held(std::span<const float> original, std::span<const float> recon,
                       double bound) {
  ASSERT_EQ(original.size(), recon.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_LE(std::fabs(static_cast<double>(recon[i]) - original[i]),
              bound * (1 + 1e-9))
        << "at " << i;
  }
}

TEST(Fz, AbsBoundHoldsOnNyxFields) {
  NyxConfig config;
  config.dim = 16;
  const io::Container nyx = generate_nyx(config);
  for (const auto& variable : nyx.variables) {
    const Field& field = variable.field;
    // Bound scaled to the field so every field compresses meaningfully.
    float lo = field.data[0], hi = field.data[0];
    for (const float v : field.data) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    fz::Params params;
    params.abs_error_bound = 1e-3 * (static_cast<double>(hi) - lo);
    if (params.abs_error_bound <= 0.0) params.abs_error_bound = 1e-6;

    Dims out_dims;
    const auto bytes = fz::compress(field.data, field.dims, params);
    const auto recon = fz::decompress(bytes, &out_dims);
    expect_bound_held(field.data, recon, params.abs_error_bound);
    EXPECT_EQ(out_dims.nx, field.dims.nx);
    EXPECT_EQ(out_dims.ny, field.dims.ny);
    EXPECT_EQ(out_dims.nz, field.dims.nz);
  }
}

TEST(Fz, AbsBoundHoldsOnHaccArrays) {
  HaccConfig config;
  config.particles = 20000;
  const io::Container hacc = generate_hacc(config);
  for (const auto& variable : hacc.variables) {
    const Field& field = variable.field;
    const bool velocity = field.name[0] == 'v';
    fz::Params params;
    params.abs_error_bound = velocity ? 10.0 : 0.01;
    const auto bytes = fz::compress(field.data, field.dims, params);
    const auto recon = fz::decompress(bytes);
    expect_bound_held(field.data, recon, params.abs_error_bound);
    EXPECT_LT(bytes.size(), field.bytes());  // it actually compresses
  }
}

TEST(Fz, StreamsByteIdenticalAcrossThreadCounts) {
  NyxConfig config;
  config.dim = 16;
  const io::Container nyx = generate_nyx(config);
  const Field& field = nyx.find("baryon_density").field;
  fz::Params params;
  params.abs_error_bound = 0.05;

  const auto baseline = fz::compress(field.data, field.dims, params);
  for (const std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    const auto bytes = fz::compress(field.data, field.dims, params, nullptr, &pool);
    EXPECT_EQ(bytes, baseline) << threads << " threads";
    // Parallel decode reproduces the serial reconstruction exactly.
    EXPECT_EQ(fz::decompress(bytes, nullptr, &pool), fz::decompress(baseline))
        << threads << " threads";
  }
}

TEST(Fz, StatsAreConsistent) {
  Rng rng(31);
  const Dims dims = Dims::d1(10000);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                                 0.01 * rng.normal());
  }
  fz::Stats stats;
  fz::Params params;
  params.abs_error_bound = 0.01;
  const auto bytes = fz::compress(data, dims, params, &stats);
  EXPECT_EQ(stats.n_values, data.size());
  EXPECT_EQ(stats.compressed_bytes, bytes.size());
  EXPECT_NEAR(stats.bit_rate, 8.0 * static_cast<double>(bytes.size()) /
                                  static_cast<double>(data.size()),
              1e-9);
  // A smooth signal is almost fully Lorenzo-predictable.
  EXPECT_LT(stats.n_unpredictable, data.size() / 100);
}

TEST(Fz, UnpredictableValuesStoredVerbatim) {
  // Values far beyond the quantizer radius fall back to verbatim storage
  // and must come back bit-exact.
  std::vector<float> data(4096, 0.0f);
  data[7] = 3.0e30f;
  data[100] = -2.5e28f;
  data[4095] = 1.0e20f;
  fz::Params params;
  params.abs_error_bound = 1e-3;
  fz::Stats stats;
  const auto bytes = fz::compress(data, Dims::d1(data.size()), params, &stats);
  const auto recon = fz::decompress(bytes);
  EXPECT_GE(stats.n_unpredictable, 3u);
  EXPECT_EQ(recon[7], 3.0e30f);
  EXPECT_EQ(recon[100], -2.5e28f);
  EXPECT_EQ(recon[4095], 1.0e20f);
  expect_bound_held(data, recon, params.abs_error_bound);
}

TEST(Fz, NonFiniteValuesRoundTripBitExact) {
  // NaN (quiet, negative, signalling) and +-Inf, alone and repeated, over
  // two chunks: every non-finite value is unpredictable, stored verbatim
  // and restored bit for bit; the finite ones keep the bound.
  std::vector<float> data(8192);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
    if (i % 97 == 3) data[i] = std::numeric_limits<float>::quiet_NaN();
    if (i % 89 == 5 || i % 89 == 6) data[i] = inf;
    if (i % 83 == 7 || i % 83 == 8) data[i] = -inf;
    if (i % 101 == 9) data[i] = std::bit_cast<float>(0xFFC00001u);
    if (i % 103 == 10) data[i] = std::bit_cast<float>(0x7F800001u);
  }
  fz::Params params;
  params.abs_error_bound = 1e-3;
  const auto recon = fz::decompress(fz::compress(data, Dims::d1(data.size()), params));
  ASSERT_EQ(recon.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::isfinite(data[i])) {
      ASSERT_LE(std::fabs(static_cast<double>(recon[i]) - data[i]), params.abs_error_bound)
          << "at " << i;
    } else {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(recon[i]), std::bit_cast<std::uint32_t>(data[i]))
          << "at " << i;
    }
  }
}

TEST(Fz, BitshuffleRoundTripsAwkwardLengths) {
  Rng rng(32);
  // Lengths around the byte boundary (non-multiples of 8) and empty.
  for (const std::size_t n : {0u, 1u, 5u, 8u, 13u, 4096u, 4101u}) {
    std::vector<std::uint16_t> codes(n);
    for (auto& c : codes) c = static_cast<std::uint16_t>(rng.next_u64());
    const auto planes = fz::bitshuffle(codes);
    EXPECT_EQ(planes.size(), 16 * ((n + 7) / 8));
    EXPECT_EQ(fz::bitunshuffle(planes, n), codes) << "n=" << n;
  }
  // A plane buffer of the wrong size is a format error, not a crash.
  EXPECT_THROW(fz::bitunshuffle(std::vector<std::uint8_t>(15, 0), 8), FormatError);
}

TEST(Fz, ZeroRunRoundTripsSparsePlanes) {
  Rng rng(33);
  std::vector<std::uint8_t> sparse(8192, 0);
  for (int i = 0; i < 40; ++i) {
    sparse[rng.uniform_index(sparse.size())] = static_cast<std::uint8_t>(1 + i);
  }
  const auto encoded = fz::zero_run_encode(sparse);
  EXPECT_LT(encoded.size(), sparse.size() / 4);  // sparsification pays off
  EXPECT_EQ(fz::zero_run_decode(encoded), sparse);
  EXPECT_EQ(fz::zero_run_decode(fz::zero_run_encode({})),
            std::vector<std::uint8_t>{});
}

TEST(Fz, EmptyAndTinyInputs) {
  fz::Params params;
  params.abs_error_bound = 0.1;
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u}) {
    std::vector<float> data(n, 1.5f);
    const auto bytes = fz::compress(data, Dims::d1(n), params);
    const auto recon = fz::decompress(bytes);
    expect_bound_held(data, recon, params.abs_error_bound);
  }
}

TEST(Fz, RejectsInvalidParams) {
  const std::vector<float> data(64, 0.0f);
  fz::Params bad_bound;
  bad_bound.abs_error_bound = 0.0;
  EXPECT_THROW(fz::compress(data, Dims::d1(64), bad_bound), InvalidArgument);
  fz::Params bad_radius;
  bad_radius.radius = (1u << 15) + 1;
  EXPECT_THROW(fz::compress(data, Dims::d1(64), bad_radius), InvalidArgument);
  fz::Params bad_chunk;
  bad_chunk.chunk_values = 0;
  EXPECT_THROW(fz::compress(data, Dims::d1(64), bad_chunk), InvalidArgument);
}

}  // namespace
}  // namespace cosmo
