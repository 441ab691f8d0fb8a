/// \file bench_codec_microbench.cpp
/// \brief google-benchmark micro-benchmarks for every substrate codec:
/// SZ / ZFP compression and decompression, Huffman, LZSS and the FFT.
/// These are the real single-core rates behind Fig. 8's measured CPU rows.
#include <benchmark/benchmark.h>

#include <cmath>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/field.hpp"
#include "fft/fft.hpp"
#include "random/rng.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace {

using namespace cosmo;

std::vector<float> smooth_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(100.0 * std::sin(0.02 * static_cast<double>(i)) +
                                 rng.normal());
  }
  return data;
}

void BM_SzCompress(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const Dims dims = Dims::d3(edge, edge, edge);
  const auto data = smooth_field(dims, 1);
  sz::Params params;
  params.abs_error_bound = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sz::compress(data, dims, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
}
BENCHMARK(BM_SzCompress)->Arg(32)->Arg(64);

void BM_SzDecompress(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const Dims dims = Dims::d3(edge, edge, edge);
  const auto data = smooth_field(dims, 2);
  sz::Params params;
  params.abs_error_bound = 0.1;
  const auto bytes = sz::compress(data, dims, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sz::decompress(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
}
BENCHMARK(BM_SzDecompress)->Arg(32)->Arg(64);

void BM_ZfpCompress(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const Dims dims = Dims::d3(edge, edge, edge);
  const auto data = smooth_field(dims, 3);
  zfp::Params params;
  params.rate = 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zfp::compress(data, dims, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
}
BENCHMARK(BM_ZfpCompress)->Arg(32)->Arg(64);

void BM_ZfpDecompress(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const Dims dims = Dims::d3(edge, edge, edge);
  const auto data = smooth_field(dims, 4);
  zfp::Params params;
  params.rate = 8.0;
  const auto bytes = zfp::compress(data, dims, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zfp::decompress(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
}
BENCHMARK(BM_ZfpDecompress)->Arg(32)->Arg(64);

// The Huffman and LZSS rows encode the chunked HUFC / LZSC containers on
// one thread, as SZ's lossless stage does with a serial session.
void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint32_t> symbols(static_cast<std::size_t>(state.range(0)));
  for (auto& s : symbols) {
    s = 32768u + static_cast<std::uint32_t>(rng.uniform_index(32)) - 16u;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman_encode(symbols));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HuffmanEncode)->Arg(1 << 16)->Arg(1 << 20);

void BM_LzssEncode(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint8_t> input(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i / 7) % 23 + rng.uniform_index(3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzss_encode(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzssEncode)->Arg(1 << 16)->Arg(1 << 20);

void BM_Fft3d(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const Dims dims = Dims::d3(edge, edge, edge);
  Rng rng(7);
  std::vector<cplx> data(dims.count());
  for (auto& x : data) x = cplx(rng.normal(), 0.0);
  for (auto _ : state) {
    auto work = data;
    fft_3d(work, dims, false);
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dims.count()));
}
BENCHMARK(BM_Fft3d)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
