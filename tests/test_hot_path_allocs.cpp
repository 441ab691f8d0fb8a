// Allocation counts on the hot paths: a check that passes, a bit read and a
// base64 quartet must not touch the heap, and an SZ compress allocates no
// field-sized scratch beyond its codes and the LZSS chain table; and SZ's
// uninitialised scratch is written before it is read. This binary replaces
// the global operator new with a counting (and optionally poisoning) one,
// so it is its own executable and must not be linked into cosmo_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "codec/bitstream.hpp"
#include "common/error.hpp"
#include "foresightd/protocol.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Allocations of at least g_large_bytes bytes.
std::atomic<std::size_t> g_large_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<std::size_t> g_large_allocations{0};
/// While set, every allocation starts as 0xA5 bytes.
std::atomic<bool> g_poison{false};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n >= g_large_bytes.load(std::memory_order_relaxed)) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    if (g_poison.load(std::memory_order_relaxed)) std::memset(p, 0xA5, n);
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, like operator new: GCC warns (-Wmismatched-new-delete) when
// it sees a pointer from an out-of-line operator new reach an inlined free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cosmo {
namespace {

/// Heap allocations made by \p body.
template <class F>
std::size_t allocations_in(F&& body) {
  const std::size_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return bytes;
}

constexpr std::size_t kMiB = 1 << 20;

/// A smooth signed wave plus uniform noise of +-0.025, seeded.
std::vector<float> noisy_wave(std::size_t n) {
  std::vector<float> data(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double noise = static_cast<double>(x >> 11) / 9007199254740992.0 - 0.5;
    data[i] = static_cast<float>(std::sin(0.001 * static_cast<double>(i)) + 0.05 * noise);
  }
  return data;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), 4 * a.size()) == 0;
}

TEST(HotPathAllocs, PassingChecksAllocateNothing) {
  volatile bool ok = true;  // keeps the checks from folding away
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000000; ++i) {
      require(ok, "HotPathAllocs: this message is longer than the small-string buffer");
      require_format(ok, "HotPathAllocs: this message is longer than the small-string buffer");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAllocs, BitReaderAllocatesNothing) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(kMiB);
  std::uint64_t sink = 0;
  const std::size_t n = allocations_in([&] {
    BitReader br(bytes);
    while (br.remaining() >= 64) {
      sink += br.get(7);
      sink += br.peek(13);
      br.skip(5);
      sink += br.get_bit() ? 1 : 0;
      sink += br.get(33);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_NE(sink, 0u);
}

TEST(HotPathAllocs, BitWriterPutAfterReserveAllocatesNothing) {
  constexpr std::uint64_t kPuts = 1 << 18;
  constexpr unsigned kWidth = 13;
  BitWriter bw;
  bw.reserve_bits(kPuts * kWidth);
  const std::size_t n = allocations_in([&] {
    for (std::uint64_t i = 0; i < kPuts; ++i) bw.put(i * 2654435761u, kWidth);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(bw.bit_count(), kPuts * kWidth);
}

TEST(HotPathAllocs, Base64DecodeAllocatesOnlyItsOutput) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(kMiB);
  const std::string text = foresightd::base64_encode(bytes);
  std::vector<std::uint8_t> decoded;
  const std::size_t n = allocations_in([&] { decoded = foresightd::base64_decode(text); });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(decoded, bytes);
}

TEST(HotPathAllocs, SzCompressAllocatesNoFieldSizedReconstruction) {
  // A smooth 64^3 field with noise at a few times the bound: about 7 bits
  // per value, so the stream the LZSS stage chains is over n / 2 bytes
  // and its int32 chain table over 2 n bytes. The codes (4 n bytes) and
  // that table are the only field-sized buffers a compress may allocate;
  // a field-sized float reconstruction would be a third. Two threads keep
  // LZSS's per-lane hash heads (128 KiB a lane, whatever n) below 2 n.
  const Dims dims = Dims::d3(64, 64, 64);
  const std::size_t n = dims.count();
  const std::vector<float> data = noisy_wave(n);
  sz::Params params;
  params.abs_error_bound = 1e-3;
  ThreadPool pool(2);
  std::vector<std::uint8_t> out;
  sz::Stats stats;
  g_large_bytes = 2 * n;
  const std::size_t before = g_large_allocations.load();
  sz::compress_into(data, dims, params, out, &stats, &pool);
  const std::size_t large = g_large_allocations.load() - before;
  g_large_bytes = std::numeric_limits<std::size_t>::max();
  EXPECT_LE(large, 2u);
  // The LZSS stage chained a stream large enough for its table to count.
  EXPECT_GT(stats.bit_rate, 4.0);
}

TEST(HotPathAllocs, SzWritesUninitialisedScratchBeforeReadingIt) {
  // Poisoned, every buffer starts as 0xA5 bytes: a NaN as a float, a code
  // far outside the quantizer's range as a u32. The scratch SZ leaves
  // uninitialised must be written whole before it is read, so both modes'
  // streams and reconstructions match an unpoisoned run bit for bit. The
  // poisoned run also decompresses into outputs already holding NaNs.
  const Dims dims = Dims::d3(37, 29, 23);
  std::vector<float> data = noisy_wave(dims.count());
  for (std::size_t i = 0; i < data.size(); i += 101) data[i] = 0.0f;
  sz::Params params;
  params.abs_error_bound = 1e-3;
  sz::PwRelParams pw;
  pw.pw_rel_bound = 1e-2;
  ThreadPool pool(2);
  std::vector<std::uint8_t> abs_stream, pw_stream;
  sz::compress_into(data, dims, params, abs_stream, nullptr, &pool);
  sz::compress_pwrel_into(data, dims, pw, pw_stream, nullptr, &pool);
  const std::vector<float> abs_recon = sz::decompress(abs_stream, nullptr, &pool);
  const std::vector<float> pw_recon = sz::decompress_pwrel(pw_stream, nullptr, &pool);

  std::vector<std::uint8_t> abs_poisoned, pw_poisoned;
  std::vector<float> abs_recon_poisoned(data.size(), std::nanf(""));
  std::vector<float> pw_recon_poisoned(data.size(), std::nanf(""));
  g_poison = true;
  sz::compress_into(data, dims, params, abs_poisoned, nullptr, &pool);
  sz::compress_pwrel_into(data, dims, pw, pw_poisoned, nullptr, &pool);
  sz::decompress_into(abs_stream, abs_recon_poisoned, nullptr, &pool);
  sz::decompress_pwrel_into(pw_stream, pw_recon_poisoned, nullptr, &pool);
  g_poison = false;
  EXPECT_EQ(abs_poisoned, abs_stream);
  EXPECT_EQ(pw_poisoned, pw_stream);
  EXPECT_TRUE(same_bits(abs_recon_poisoned, abs_recon));
  EXPECT_TRUE(same_bits(pw_recon_poisoned, pw_recon));
}

}  // namespace
}  // namespace cosmo
