// Allocation counts on the hot decode paths: a check that passes, a bit read
// and a base64 quartet must not touch the heap. This binary replaces the
// global operator new with a counting one, so it is its own executable and
// must not be linked into cosmo_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "codec/bitstream.hpp"
#include "common/error.hpp"
#include "foresightd/protocol.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace cosmo
