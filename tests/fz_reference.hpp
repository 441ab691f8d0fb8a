/// \file fz_reference.hpp
/// \brief Test oracle for the FZ stream format: the original serial
/// per-chunk codec — one chunk at a time through the quantizer, a
/// set-bit-at-a-time bitshuffle, a byte-wise zero-run sparsifier, and a serial
/// concatenation of the chunk payloads.
///
/// It is the plainest statement of the format: a 52-byte header (magic,
/// flags, dims, bound, radius, chunk size, chunk count), a table of u32
/// payload sizes, then each chunk's payload in order — u32 unpredictable
/// count, the unpredictable floats, and the zero-run stream (u64 length,
/// group bitmap, kept 16-byte groups) of its 16 bit-planes. The library
/// codec must reproduce its streams byte for byte and its reconstructions
/// bit for bit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/field.hpp"
#include "fz/fz.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::test {

namespace fz_ref {

constexpr std::uint32_t kMagic = 0x31435A46;  // "FZC1"
constexpr std::size_t kGroupBytes = 16;

inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void raw(const std::uint8_t* p, std::size_t n) { bytes.insert(bytes.end(), p, p + n); }
};

struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::uint64_t get(int n) {
    require_format(static_cast<std::size_t>(n) <= bytes.size() - pos, "fz_ref: truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
};

inline std::uint16_t remap_code(std::uint32_t code, std::uint32_t radius) {
  const std::int32_t centered = static_cast<std::int32_t>(code) - static_cast<std::int32_t>(radius);
  const std::uint32_t zigzag =
      (static_cast<std::uint32_t>(centered) << 1) ^ static_cast<std::uint32_t>(centered >> 31);
  return static_cast<std::uint16_t>(zigzag + 1);
}

inline std::uint32_t unmap_symbol(std::uint16_t symbol, std::uint32_t radius) {
  const std::uint32_t zigzag = static_cast<std::uint32_t>(symbol) - 1;
  const std::int32_t centered =
      static_cast<std::int32_t>(zigzag >> 1) ^ -static_cast<std::int32_t>(zigzag & 1);
  return static_cast<std::uint32_t>(static_cast<std::int64_t>(centered) + radius);
}

/// Bit b of symbol k goes to bit k % 8 of byte k / 8 of plane b.
inline std::vector<std::uint8_t> bitshuffle(std::span<const std::uint16_t> codes) {
  const std::size_t plane_bytes = ceil_div(codes.size(), 8);
  std::vector<std::uint8_t> out(16 * plane_bytes, 0);
  for (std::size_t k = 0; k < codes.size(); ++k) {
    std::uint16_t v = codes[k];
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (k & 7));
    while (v != 0) {
      out[static_cast<std::size_t>(std::countr_zero(v)) * plane_bytes + (k >> 3)] |= bit;
      v &= static_cast<std::uint16_t>(v - 1);
    }
  }
  return out;
}

inline std::vector<std::uint16_t> bitunshuffle(std::span<const std::uint8_t> planes,
                                               std::size_t count) {
  const std::size_t plane_bytes = ceil_div(count, 8);
  std::vector<std::uint16_t> out(count, 0);
  for (std::size_t b = 0; b < 16; ++b) {
    const std::uint8_t* plane = planes.data() + b * plane_bytes;
    for (std::size_t j = 0; j < plane_bytes; ++j) {
      std::uint8_t byte = plane[j];
      while (byte != 0) {
        out[j * 8 + static_cast<std::size_t>(std::countr_zero(byte))] |=
            static_cast<std::uint16_t>(1u << b);
        byte &= static_cast<std::uint8_t>(byte - 1);
      }
    }
  }
  return out;
}

inline void zero_run_encode_into(std::span<const std::uint8_t> planes, ByteWriter& w) {
  w.u64(planes.size());
  const std::size_t groups = ceil_div(planes.size(), kGroupBytes);
  const std::size_t bitmap_at = w.bytes.size();
  w.bytes.resize(bitmap_at + ceil_div(groups, 8), 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * kGroupBytes;
    const std::size_t hi = std::min(lo + kGroupBytes, planes.size());
    bool nonzero = false;
    for (std::size_t i = lo; i < hi; ++i) nonzero = nonzero || planes[i] != 0;
    if (nonzero) {
      w.bytes[bitmap_at + g / 8] |= static_cast<std::uint8_t>(1u << (g % 8));
      w.raw(planes.data() + lo, hi - lo);
    }
  }
}

inline std::vector<std::uint8_t> zero_run_decode_from(ByteReader& r) {
  const std::size_t len = static_cast<std::size_t>(r.get(8));
  const std::size_t groups = ceil_div(len, kGroupBytes);
  const std::size_t bitmap_at = r.pos;
  r.pos += ceil_div(groups, 8);
  std::vector<std::uint8_t> out(len, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    if ((r.bytes[bitmap_at + g / 8] >> (g % 8) & 1u) == 0) continue;
    const std::size_t lo = g * kGroupBytes;
    for (std::size_t i = lo; i < std::min(lo + kGroupBytes, len); ++i) {
      out[i] = static_cast<std::uint8_t>(r.get(1));
    }
  }
  return out;
}

inline std::vector<std::uint8_t> encode_chunk(std::span<const float> values,
                                              const fz::Params& params) {
  const sz::Quantizer quantizer(params.abs_error_bound, params.radius);
  std::vector<std::uint16_t> symbols(values.size());
  std::vector<float> unpredictable;
  float prev = 0.0f;  // fixed seed => chunks are independent
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto q = quantizer.quantize(values[i], prev);
    if (q.code == 0) {
      symbols[i] = 0;
      unpredictable.push_back(values[i]);
      prev = values[i];
    } else {
      symbols[i] = remap_code(q.code, params.radius);
      prev = q.reconstructed;
    }
  }
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(unpredictable.size()));
  for (const float v : unpredictable) w.u32(std::bit_cast<std::uint32_t>(v));
  zero_run_encode_into(bitshuffle(symbols), w);
  return std::move(w.bytes);
}

inline void decode_chunk(std::span<const std::uint8_t> payload, double bound,
                         std::uint32_t radius, std::span<float> out) {
  ByteReader r{payload};
  std::vector<float> unpredictable(static_cast<std::size_t>(r.get(4)));
  for (auto& v : unpredictable) v = std::bit_cast<float>(static_cast<std::uint32_t>(r.get(4)));
  const auto symbols = bitunshuffle(zero_run_decode_from(r), out.size());
  const sz::Quantizer quantizer(bound, radius);
  float prev = 0.0f;
  std::size_t next_unpred = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    prev = symbols[i] == 0 ? unpredictable.at(next_unpred++)
                           : quantizer.reconstruct(unmap_symbol(symbols[i], radius), prev);
    out[i] = prev;
  }
}

}  // namespace fz_ref

/// Serial reference encoder for fz::compress streams.
inline std::vector<std::uint8_t> fz_compress_reference(std::span<const float> data,
                                                       const Dims& dims,
                                                       const fz::Params& params) {
  using namespace fz_ref;
  const std::size_t n = data.size();
  const std::size_t n_chunks = ceil_div(n, params.chunk_values);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t base = c * params.chunk_values;
    payloads.push_back(
        encode_chunk(data.subspan(base, std::min(params.chunk_values, n - base)), params));
  }
  ByteWriter w;
  w.u32(kMagic);
  w.u32(0);
  w.u64(dims.nx);
  w.u64(dims.ny);
  w.u64(dims.nz);
  w.u64(std::bit_cast<std::uint64_t>(params.abs_error_bound));
  w.u32(params.radius);
  w.u32(static_cast<std::uint32_t>(params.chunk_values));
  w.u32(static_cast<std::uint32_t>(n_chunks));
  for (const auto& p : payloads) w.u32(static_cast<std::uint32_t>(p.size()));
  for (const auto& p : payloads) w.raw(p.data(), p.size());
  return std::move(w.bytes);
}

/// Serial reference decoder for well-formed fz::compress streams.
inline std::vector<float> fz_decompress_reference(std::span<const std::uint8_t> bytes) {
  using namespace fz_ref;
  ByteReader r{bytes};
  r.pos = 8;
  const Dims dims{r.get(8), r.get(8), r.get(8)};
  const double bound = std::bit_cast<double>(r.get(8));
  const auto radius = static_cast<std::uint32_t>(r.get(4));
  const auto chunk_values = static_cast<std::size_t>(r.get(4));
  const auto n_chunks = static_cast<std::size_t>(r.get(4));
  std::vector<std::size_t> sizes(n_chunks);
  for (auto& s : sizes) s = static_cast<std::size_t>(r.get(4));
  std::vector<float> out(dims.count());
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t base = c * chunk_values;
    decode_chunk(bytes.subspan(r.pos, sizes[c]), bound, radius,
                 std::span<float>(out).subspan(base, std::min(chunk_values, out.size() - base)));
    r.pos += sizes[c];
  }
  return out;
}

}  // namespace cosmo::test
