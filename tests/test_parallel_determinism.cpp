/// \file test_parallel_determinism.cpp
/// \brief The PR's determinism guarantee, checked end to end: every
/// parallelized kernel must produce byte-identical compressed streams and
/// bitwise-identical analysis outputs for any thread count, on both HACC-
/// and Nyx-like synthetic data, including non-power-of-two shapes that
/// leave ragged chunk boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cic.hpp"
#include "analysis/fof.hpp"
#include "analysis/power_spectrum.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/thread_pool.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "dft_reference.hpp"
#include "fft/fft.hpp"
#include "fz/fz.hpp"
#include "fz_reference.hpp"
#include "huffman_reference.hpp"
#include "lzss_reference.hpp"
#include "random/rng.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"
#include "zfp_reference.hpp"

namespace {

using namespace cosmo;

/// The thread counts under test: serial, even, and an awkward prime that
/// never divides the chunk counts evenly.
std::vector<std::unique_ptr<ThreadPool>> make_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // threads == 1
  pools.push_back(std::make_unique<ThreadPool>(2));
  pools.push_back(std::make_unique<ThreadPool>(7));
  return pools;
}

bool bytes_equal(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool floats_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Nyx-like smooth 3-D field; any shape (non-power-of-two allowed since the
/// codecs do not need the FFT).
std::vector<float> smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(100.0 * std::sin(0.02 * static_cast<double>(i)) +
                                 rng.normal());
  }
  return data;
}

TEST(ParallelDeterminism, ZfpStreamsByteIdenticalAcrossThreads) {
  // 50x33x27 -> 13x9x7 = 819 blocks: above the parallel threshold, ragged
  // on every axis. 64^3 covers the aligned case.
  for (const Dims& dims : {Dims::d3(50, 33, 27), Dims::d3(64, 64, 64)}) {
    const auto data = smooth_field(dims, 21);
    for (const zfp::Mode mode : {zfp::Mode::kFixedRate, zfp::Mode::kFixedAccuracy}) {
      zfp::Params params;
      params.mode = mode;
      params.rate = 8.0;
      params.tolerance = 0.05;
      const auto baseline = zfp::compress(data, dims, params);
      const auto baseline_recon = zfp::decompress(baseline);
      for (const auto& pool : make_pools()) {
        const auto bytes = zfp::compress(data, dims, params, nullptr, pool.get());
        EXPECT_TRUE(bytes_equal(bytes, baseline))
            << "zfp mode " << static_cast<int>(mode) << " stream differs";
        const auto recon = zfp::decompress(bytes, nullptr, pool.get());
        EXPECT_TRUE(floats_identical(recon, baseline_recon));
      }
    }
  }
}

/// Finite value classes the ZFP kernel must code exactly like the oracle.
std::vector<std::pair<std::string, std::vector<float>>> zfp_value_classes(const Dims& dims) {
  const std::size_t n = dims.count();
  Rng rng(41);
  std::vector<std::pair<std::string, std::vector<float>>> classes;
  classes.emplace_back("smooth", smooth_field(dims, 24));
  classes.emplace_back("zeros", std::vector<float>(n, 0.0f));
  std::vector<float> denormal(n), extreme(n), mixed(n);
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float huge = std::numeric_limits<float>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const float sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0f : 1.0f;
    denormal[i] = sign * tiny * static_cast<float>(rng.uniform_index(1u << 23));
    extreme[i] = sign * (rng.uniform(0.0, 1.0) < 0.7 ? huge : huge * 0.37f);
    mixed[i] = sign * (rng.uniform(0.0, 1.0) < 0.5 ? 1e-30f : 1e30f) *
               static_cast<float>(rng.uniform(1.0, 2.0));
  }
  classes.emplace_back("denormal", std::move(denormal));
  classes.emplace_back("flt_max", std::move(extreme));
  classes.emplace_back("mixed_1e-30_1e30", std::move(mixed));
  return classes;
}

TEST(ParallelDeterminism, ZfpKernelsMatchReference) {
  // The rank-specialized range kernel and the parallel payload placement
  // against the serial per-value oracle: every rank (ragged shapes above
  // the 512-block range size), every mode, several thread counts.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t threads : {2, 3, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  std::vector<zfp::Params> modes;
  for (const double rate : {4.0, 8.0, 16.0, 32.0}) {
    zfp::Params p;
    p.rate = rate;
    modes.push_back(p);
  }
  for (const unsigned precision : {8u, 32u}) {
    zfp::Params p;
    p.mode = zfp::Mode::kFixedPrecision;
    p.precision = precision;
    modes.push_back(p);
  }
  {
    zfp::Params p;
    p.mode = zfp::Mode::kFixedAccuracy;
    p.tolerance = 1e-3;
    modes.push_back(p);
  }
  // 1025, 33 x 17 = 561 and 13 x 9 x 7 = 819 blocks, partial on every axis.
  for (const Dims& dims : {Dims::d1(4099), Dims::d2(131, 67), Dims::d3(50, 33, 27)}) {
    for (const auto& [name, data] : zfp_value_classes(dims)) {
      for (const zfp::Params& params : modes) {
        const auto expected = test::zfp_compress_reference(data, dims, params);
        const auto expected_recon = test::zfp_decompress_reference(expected);
        for (const auto& pool : pools) {
          const std::string where = "rank " + std::to_string(dims.rank()) + " " + name +
                                    " mode " + std::to_string(static_cast<int>(params.mode)) +
                                    " rate " + std::to_string(params.rate) + " precision " +
                                    std::to_string(params.precision) + " threads " +
                                    std::to_string(pool ? pool->size() : 1);
          const auto bytes = zfp::compress(data, dims, params, nullptr, pool.get());
          ASSERT_TRUE(bytes_equal(bytes, expected)) << where;
          EXPECT_TRUE(floats_identical(zfp::decompress(bytes, nullptr, pool.get()),
                                       expected_recon))
              << where;
        }
      }
    }
  }
}

TEST(ParallelDeterminism, FzKernelsMatchReference) {
  // The lockstep chunk kernel, transpose shuffle, word-wise zero run and
  // parallel payload placement against the serial per-chunk oracle. Chunk
  // counts are not multiples of the 4-chunk lane group, and a ragged last
  // chunk runs alone; with 203 small chunks the pooled tasks hold several
  // lane groups too.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t threads : {2, 3, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const std::size_t chunk_values : {1, 7, 8, 4096, 4097}) {
    const std::size_t chunks = chunk_values <= 8 ? 202 : 9;
    for (const std::size_t n : {chunks * chunk_values + std::max<std::size_t>(1, chunk_values / 2),
                                5 * chunk_values}) {
      auto classes = zfp_value_classes(Dims::d1(n));
      // Non-finite values are unpredictable and stored verbatim: quiet,
      // negative and signalling NaN, and +-Inf alone and repeated (the
      // Inf - Inf case).
      std::vector<float> nonfinite = smooth_field(Dims::d1(n), 25);
      const float inf = std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 13 == 3) nonfinite[i] = std::numeric_limits<float>::quiet_NaN();
        if (i % 17 == 5 || i % 17 == 6) nonfinite[i] = inf;
        if (i % 19 == 7) nonfinite[i] = -inf;
        if (i % 23 == 11) nonfinite[i] = std::bit_cast<float>(0xFFC00001u);
        if (i % 29 == 13) nonfinite[i] = std::bit_cast<float>(0x7F800001u);
      }
      classes.emplace_back("nonfinite", std::move(nonfinite));
      for (const auto& [name, data] : classes) {
        for (const std::uint32_t radius : {2u, 1u << 15}) {
          fz::Params params;
          params.abs_error_bound = 0.01;
          params.chunk_values = chunk_values;
          params.radius = radius;
          const Dims dims = Dims::d1(n);
          const auto expected = test::fz_compress_reference(data, dims, params);
          const auto expected_recon = test::fz_decompress_reference(expected);
          for (const auto& pool : pools) {
            const std::string where = name + " n " + std::to_string(n) + " chunk_values " +
                                      std::to_string(chunk_values) + " radius " +
                                      std::to_string(radius) + " threads " +
                                      std::to_string(pool ? pool->size() : 1);
            const auto bytes = fz::compress(data, dims, params, nullptr, pool.get());
            ASSERT_TRUE(bytes_equal(bytes, expected)) << where;
            EXPECT_TRUE(floats_identical(fz::decompress(bytes, nullptr, pool.get()),
                                         expected_recon))
                << where;
          }
        }
      }
    }
  }
}

TEST(ParallelDeterminism, SzStreamsByteIdenticalAcrossThreads) {
  for (const Dims& dims : {Dims::d3(50, 33, 27), Dims::d3(64, 64, 64)}) {
    const auto data = smooth_field(dims, 22);
    sz::Params params;
    params.abs_error_bound = 0.1;
    const auto baseline = sz::compress(data, dims, params);
    const auto baseline_recon = sz::decompress(baseline);
    for (const auto& pool : make_pools()) {
      const auto bytes = sz::compress(data, dims, params, nullptr, pool.get());
      EXPECT_TRUE(bytes_equal(bytes, baseline)) << "sz stream differs";
      const auto recon = sz::decompress(bytes, nullptr, pool.get());
      EXPECT_TRUE(floats_identical(recon, baseline_recon));
    }
  }
}

TEST(ParallelDeterminism, SzPwRelStreamsByteIdenticalAcrossThreads) {
  const Dims dims = Dims::d3(40, 25, 19);
  auto data = smooth_field(dims, 23);
  data[7] = 0.0f;  // exercise the zero-threshold class
  sz::PwRelParams params;
  params.pw_rel_bound = 0.01;
  const auto baseline = sz::compress_pwrel(data, dims, params);
  const auto baseline_recon = sz::decompress_pwrel(baseline);
  for (const auto& pool : make_pools()) {
    const auto bytes = sz::compress_pwrel(data, dims, params, nullptr, pool.get());
    EXPECT_TRUE(bytes_equal(bytes, baseline)) << "pw_rel stream differs";
    const auto recon = sz::decompress_pwrel(bytes, nullptr, pool.get());
    EXPECT_TRUE(floats_identical(recon, baseline_recon));
  }
}

TEST(ParallelDeterminism, HaccPositionFieldStreams) {
  // The HACC snapshot's 1-D position arrays, compressed directly (rank 1).
  HaccConfig config;
  config.particles = 60000;  // not a multiple of the 1-D block edge (128)
  config.seed = 9;
  const auto snapshot = generate_hacc(config);
  const auto& x = snapshot.find("x").field.data;
  const Dims dims = Dims::d1(x.size());
  sz::Params params;
  params.abs_error_bound = 1e-3;
  const auto baseline = sz::compress(x, dims, params);
  for (const auto& pool : make_pools()) {
    EXPECT_TRUE(bytes_equal(sz::compress(x, dims, params, nullptr, pool.get()), baseline));
  }
}

TEST(ParallelDeterminism, ChunkedHuffmanRoundtripAndIdentical) {
  Rng rng(31);
  // 100003 symbols with a 1000-symbol chunk: 101 chunks, last one ragged.
  std::vector<std::uint32_t> symbols(100003);
  for (auto& s : symbols) {
    s = 32768u + static_cast<std::uint32_t>(rng.uniform_index(64));
  }
  const auto baseline = huffman_encode(symbols, nullptr, 1000);
  for (const auto& pool : make_pools()) {
    const auto bytes = huffman_encode(symbols, pool.get(), 1000);
    EXPECT_TRUE(bytes_equal(bytes, baseline));
    EXPECT_EQ(huffman_decode(bytes, pool.get()), symbols);
    EXPECT_EQ(huffman_decode(bytes), symbols);
  }
}

TEST(ParallelDeterminism, ChunkedLzssRoundtripAndIdentical) {
  Rng rng(32);
  std::vector<std::uint8_t> input(300001);  // ragged against 4 KiB chunks
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 9) % 31 + rng.uniform_index(4));
  }
  const auto baseline = lzss_encode(input, nullptr, 4096);
  for (const auto& pool : make_pools()) {
    const auto bytes = lzss_encode(input, pool.get(), 4096);
    EXPECT_TRUE(bytes_equal(bytes, baseline));
    EXPECT_EQ(lzss_decode(bytes, pool.get()), input);
    EXPECT_EQ(lzss_decode(bytes), input);
  }
}

TEST(ParallelDeterminism, HuffmanKernelsMatchReference) {
  // Every case against the serial reference encoder and decoder, at chunk
  // sizes that leave a ragged last chunk (and the default 1<<18, 0 here).
  std::vector<std::pair<const char*, std::vector<std::uint32_t>>> cases;
  Rng rng(43);
  {
    std::vector<std::uint32_t> codes(100003);
    for (auto& s : codes) s = 32768u + static_cast<std::uint32_t>(rng.uniform_index(33)) - 16u;
    cases.emplace_back("quantization codes", std::move(codes));
  }
  cases.emplace_back("empty", std::vector<std::uint32_t>{});
  cases.emplace_back("single-symbol alphabet", std::vector<std::uint32_t>(70001, 42));
  {
    // Span past the 2^22 dense-histogram cutoff: the sparse map paths.
    std::vector<std::uint32_t> sparse(50001);
    for (auto& s : sparse) s = static_cast<std::uint32_t>(rng.uniform_index(1u << 24)) * 97u;
    cases.emplace_back("sparse alphabet wider than 2^22", std::move(sparse));
  }

  for (const auto& [name, symbols] : cases) {
    for (const std::size_t chunk : {std::size_t{1000}, std::size_t{65536}, std::size_t{0}}) {
      const auto reference =
          test::huffman_encode_chunked_reference(symbols, chunk ? chunk : 1u << 18);
      ASSERT_EQ(test::huffman_decode_reference(reference), symbols) << name;
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
        ThreadPool pool(threads);
        const auto bytes = huffman_encode(symbols, &pool, chunk);
        EXPECT_TRUE(bytes_equal(bytes, reference))
            << name << ", chunk " << chunk << ", " << threads << " threads";
        EXPECT_EQ(huffman_decode(bytes, &pool), symbols)
            << name << ", chunk " << chunk << ", " << threads << " threads";
      }
    }
  }
}

TEST(ParallelDeterminism, LzssSegmentParallelMatchesReference) {
  // Default 1 MiB chunks, so the encoder's 64 KiB segments split the work
  // inside each chunk; every input is checked against the serial
  // reference encoder and decoded back.
  std::vector<std::pair<const char*, std::vector<std::uint8_t>>> cases;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto xorshift = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint8_t>(x);
  };
  {
    std::vector<std::uint8_t> random((1u << 20) + 200003);
    for (auto& b : random) b = xorshift();
    cases.emplace_back("random", std::move(random));
  }
  cases.emplace_back("zeros", std::vector<std::uint8_t>((1u << 20) + 70001, 0));
  {
    // The true parse enters the second segment inside a speculative
    // 259-byte match of the zero run, so the stitch recomputes tokens
    // until the two parses meet at the end of the run.
    std::vector<std::uint8_t> straddle(300000);
    for (auto& b : straddle) b = static_cast<std::uint8_t>(xorshift() | 1);
    std::fill(straddle.begin() + (1 << 16) - 1000, straddle.begin() + (1 << 16) + 3000, 0);
    cases.emplace_back("zero run across a segment boundary", std::move(straddle));
  }
  {
    const std::string words[] = {"halo ", "density ", "snapshot ", "redshift ", "particle ",
                                 "the ", "of ", "power spectrum "};
    std::string text;
    Rng rng(41);
    while (text.size() < (1u << 20) + 90001) text += words[rng.uniform_index(8)];
    cases.emplace_back("repetitive text", std::vector<std::uint8_t>(text.begin(), text.end()));
  }
  {
    NyxConfig config;
    config.dim = 64;
    config.seed = 3;
    const Field field = generate_nyx_delta(config);
    sz::Params params;
    params.abs_error_bound = 1e-2;
    params.lossless = false;
    cases.emplace_back("sz container", sz::compress(field.data, field.dims, params));
  }

  for (const auto& [name, input] : cases) {
    const auto reference = test::lzss_encode_chunked_reference(input, 1u << 20);
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
      ThreadPool pool(threads);
      const auto bytes = lzss_encode(input, &pool);
      EXPECT_TRUE(bytes_equal(bytes, reference)) << name << ", " << threads << " threads";
      EXPECT_EQ(lzss_decode(bytes, &pool), input) << name << ", " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminism, PowerSpectrumBitwiseIdenticalAcrossThreads) {
  NyxConfig config;
  config.dim = 32;
  config.seed = 5;
  const Field delta = generate_nyx_delta(config);
  const auto baseline = analysis::power_spectrum(delta.data, delta.dims);
  ASSERT_FALSE(baseline.empty());
  for (const auto& pool : make_pools()) {
    const auto bins = analysis::power_spectrum(delta.data, delta.dims, 0, pool.get());
    ASSERT_EQ(bins.size(), baseline.size());
    for (std::size_t i = 0; i < bins.size(); ++i) {
      EXPECT_EQ(bins[i].modes, baseline[i].modes);
      // Bitwise: the fixed z-order reduction must make these exact.
      EXPECT_EQ(std::memcmp(&bins[i].k, &baseline[i].k, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&bins[i].power, &baseline[i].power, sizeof(double)), 0);
    }
  }
}

TEST(ParallelDeterminism, CicAndFofBitwiseIdenticalAcrossThreads) {
  HaccConfig config;
  config.particles = 30000;
  config.seed = 3;
  const auto snapshot = generate_hacc(config);
  const auto& x = snapshot.find("x").field.data;
  const auto& y = snapshot.find("y").field.data;
  const auto& z = snapshot.find("z").field.data;

  const Field cic_baseline = analysis::cic_deposit(x, y, z, config.box, 48);
  analysis::FofParams fof_params;
  fof_params.linking_length = 1.5;
  fof_params.box = config.box;
  fof_params.most_connected = true;
  fof_params.most_bound = true;
  const auto fof_baseline = analysis::fof(x, y, z, fof_params);
  ASSERT_FALSE(fof_baseline.halos.empty());

  for (const auto& pool : make_pools()) {
    const Field cic = analysis::cic_deposit(x, y, z, config.box, 48, pool.get());
    EXPECT_TRUE(floats_identical(cic.data, cic_baseline.data));

    const auto fof = analysis::fof(x, y, z, fof_params, pool.get());
    EXPECT_EQ(fof.halo_of_particle, fof_baseline.halo_of_particle);
    EXPECT_EQ(fof.grid_edge_cells, fof_baseline.grid_edge_cells);
    ASSERT_EQ(fof.halos.size(), fof_baseline.halos.size());
    for (std::size_t h = 0; h < fof.halos.size(); ++h) {
      EXPECT_EQ(fof.halos[h].members, fof_baseline.halos[h].members);
      EXPECT_EQ(std::memcmp(&fof.halos[h].cx, &fof_baseline.halos[h].cx,
                            3 * sizeof(double)),
                0);
      EXPECT_EQ(fof.halos[h].most_connected_particle,
                fof_baseline.halos[h].most_connected_particle);
      EXPECT_EQ(fof.halos[h].most_bound_particle,
                fof_baseline.halos[h].most_bound_particle);
    }
  }
}

TEST(ParallelDeterminism, PkRatioBitwiseIdenticalAcrossThreads) {
  NyxConfig config;
  config.dim = 32;
  config.seed = 6;
  const Field delta = generate_nyx_delta(config);
  sz::Params params;
  params.abs_error_bound = 0.05;
  const auto recon = sz::decompress(sz::compress(delta.data, delta.dims, params));
  const auto baseline = analysis::pk_ratio(delta.data, recon, delta.dims, 0.5);
  for (const auto& pool : make_pools()) {
    const auto r = analysis::pk_ratio(delta.data, recon, delta.dims, 0.5, pool.get());
    ASSERT_EQ(r.ratio.size(), baseline.ratio.size());
    EXPECT_EQ(std::memcmp(&r.max_deviation, &baseline.max_deviation, sizeof(double)), 0);
    for (std::size_t i = 0; i < r.ratio.size(); ++i) {
      EXPECT_EQ(std::memcmp(&r.ratio[i], &baseline.ratio[i], sizeof(double)), 0);
    }
  }
}

TEST(FftTwiddleCache, MatchesDftReferenceAcrossCachedSizes) {
  Rng rng(41);
  for (const std::size_t n : {2u, 8u, 32u, 128u, 512u}) {
    std::vector<cplx> data(n);
    for (auto& v : data) v = cplx(rng.normal(), rng.normal());
    const auto want = test::dft_reference(data, false);
    // Two passes per size: the second is guaranteed to hit the cache and
    // must produce exactly the same answer.
    for (int pass = 0; pass < 2; ++pass) {
      auto got = data;
      fft_1d(got, false);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i].real(), want[i].real(), 1e-9 * static_cast<double>(n));
        EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-9 * static_cast<double>(n));
      }
      // Inverse through the cached conjugate path restores the input.
      fft_1d(got, true);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i].real(), data[i].real(), 1e-10 * static_cast<double>(n));
        EXPECT_NEAR(got[i].imag(), data[i].imag(), 1e-10 * static_cast<double>(n));
      }
    }
  }
  // All five sizes must now be resident (the cache is process-wide, so
  // other tests may have added more).
  EXPECT_GE(fft_twiddle_cache_entries(), 5u);
}

TEST(FftTwiddleCache, Fft3dBitwiseIdenticalAcrossThreads) {
  const Dims dims = Dims::d3(16, 8, 32);
  Rng rng(42);
  std::vector<cplx> data(dims.count());
  for (auto& v : data) v = cplx(rng.normal(), rng.normal());
  auto baseline = data;
  fft_3d(baseline, dims, false);
  for (const auto& pool : make_pools()) {
    auto work = data;
    fft_3d(work, dims, false, pool.get());
    ASSERT_EQ(work.size(), baseline.size());
    EXPECT_EQ(std::memcmp(work.data(), baseline.data(), work.size() * sizeof(cplx)), 0);
  }
}

}  // namespace
