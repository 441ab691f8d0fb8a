/// \file zfp_reference.hpp
/// \brief Test oracle for the ZFP stream format: the original serial,
/// runtime-rank block codec, with per-value std::ldexp/std::frexp
/// alignment, per-plane value rescans, bit-by-bit run-length codes and a
/// single bit writer for the whole payload.
///
/// It is the plainest statement of the format: blocks in linear order
/// (bz outermost, bx innermost), edge values replicated into partial
/// blocks, an 11-bit header (non-empty flag, exponent + 256) per non-empty
/// block, and fixed-rate blocks padded to exactly maxbits bits. The library
/// codec must reproduce its streams byte for byte and its reconstructions
/// bit for bit.
#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "codec/bitstream.hpp"
#include "common/field.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::test {

namespace zfp_ref {

inline std::size_t block_values(int rank) { return rank == 1 ? 4u : rank == 2 ? 16u : 64u; }

inline std::int32_t wadd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) + static_cast<std::uint32_t>(b));
}
inline std::int32_t wsub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) - static_cast<std::uint32_t>(b));
}

inline void fwd_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  x = wadd(x, w); x >>= 1; w = wsub(w, x);
  z = wadd(z, y); z >>= 1; y = wsub(y, z);
  x = wadd(x, z); x >>= 1; z = wsub(z, x);
  w = wadd(w, y); w >>= 1; y = wsub(y, w);
  w = wadd(w, y >> 1); y = wsub(y, w >> 1);
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

inline void inv_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  y = wadd(y, w >> 1); w = wsub(w, y >> 1);
  y = wadd(y, w); w = wadd(w, w); w = wsub(w, y);
  z = wadd(z, x); x = wadd(x, x); x = wsub(x, z);
  y = wadd(y, z); z = wadd(z, z); z = wsub(z, y);
  w = wadd(w, x); x = wadd(x, x); x = wsub(x, w);
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

inline void fwd_xform(std::int32_t* p, int rank) {
  if (rank == 1) return fwd_lift(p, 1);
  if (rank == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + x, 4);
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 16 * z + 4 * y, 1);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 16 * z + x, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 4 * y + x, 16);
}

inline void inv_xform(std::int32_t* p, int rank) {
  if (rank == 1) return inv_lift(p, 1);
  if (rank == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 4 * y, 1);
    return;
  }
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 4 * y + x, 16);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 16 * z + x, 4);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 16 * z + 4 * y, 1);
}

/// Stable sort of the block's linear indices by total sequency.
inline std::vector<std::uint16_t> perm(int rank) {
  std::vector<std::uint16_t> p(block_values(rank));
  std::iota(p.begin(), p.end(), 0);
  auto degree = [](std::uint16_t i) { return (i & 3u) + ((i >> 2) & 3u) + ((i >> 4) & 3u); };
  std::stable_sort(p.begin(), p.end(),
                   [&](std::uint16_t a, std::uint16_t b) { return degree(a) < degree(b); });
  return p;
}

constexpr std::uint32_t kNbMask = 0xaaaaaaaau;

inline unsigned precision(int emax, unsigned maxprec, int minexp, int rank) {
  if (emax == INT_MIN) return 0;
  const long p = static_cast<long>(emax) - minexp + 2l * (rank + 1);
  return p <= 0 ? 0 : std::min<unsigned>(maxprec, static_cast<unsigned>(p));
}

/// ZFP's embedded coder, one bit per call.
inline void encode_ints(BitWriter& bw, unsigned maxbits, unsigned maxprec,
                        const std::vector<std::uint32_t>& data) {
  const std::size_t size = data.size();
  const unsigned kmin = 32 > maxprec ? 32 - maxprec : 0;
  unsigned bits = maxbits;
  std::size_t n = 0;
  for (unsigned k = 32; bits && k-- > kmin;) {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < size; ++i) {
      x += static_cast<std::uint64_t>((data[i] >> k) & 1u) << i;
    }
    const unsigned m = std::min<unsigned>(static_cast<unsigned>(n), bits);
    bits -= m;
    for (unsigned i = 0; i < m; ++i, x >>= 1) bw.put_bit((x & 1u) != 0);
    auto wbit = [&bw](bool b) {
      bw.put_bit(b);
      return b;
    };
    for (; n < size && bits && (--bits, wbit(x != 0)); x >>= 1, ++n) {
      for (; n < size - 1 && bits && (--bits, !wbit((x & 1u) != 0)); x >>= 1, ++n) {
      }
    }
  }
}

/// Mirror of encode_ints(), one bit per call.
inline void decode_ints(BitReader& br, unsigned maxbits, unsigned maxprec,
                        std::vector<std::uint32_t>& data) {
  const std::size_t size = data.size();
  std::fill(data.begin(), data.end(), 0u);
  const unsigned kmin = 32 > maxprec ? 32 - maxprec : 0;
  unsigned bits = maxbits;
  std::size_t n = 0;
  for (unsigned k = 32; bits && k-- > kmin;) {
    const unsigned m = std::min<unsigned>(static_cast<unsigned>(n), bits);
    bits -= m;
    std::uint64_t x = 0;
    for (unsigned i = 0; i < m; ++i) x |= static_cast<std::uint64_t>(br.get_bit()) << i;
    for (; n < size && bits && (--bits, br.get_bit()); x += std::uint64_t{1} << n++) {
      for (; n < size - 1 && bits && (--bits, !br.get_bit()); ++n) {
      }
    }
    for (std::size_t i = 0; x; ++i, x >>= 1) data[i] += static_cast<std::uint32_t>(x & 1u) << k;
  }
}

inline void encode_block(BitWriter& bw, const std::vector<float>& block, int rank,
                         unsigned maxbits, unsigned maxprec, int minexp, bool pad) {
  const std::uint64_t start = bw.bit_count();
  float max_abs = 0.0f;
  for (const float v : block) max_abs = std::max(max_abs, std::fabs(v));
  int emax = INT_MIN;
  if (max_abs != 0.0f) std::frexp(max_abs, &emax);
  const unsigned prec = precision(emax, maxprec, minexp, rank);
  if (prec == 0) {
    bw.put_bit(false);
  } else {
    bw.put_bit(true);
    bw.put(static_cast<std::uint64_t>(emax + 256), 10);
    const std::size_t n = block.size();
    std::vector<std::int32_t> ints(n);
    for (std::size_t i = 0; i < n; ++i) {
      ints[i] = static_cast<std::int32_t>(std::ldexp(static_cast<double>(block[i]), 30 - emax));
    }
    fwd_xform(ints.data(), rank);
    const auto p = perm(rank);
    std::vector<std::uint32_t> coded(n);
    for (std::size_t i = 0; i < n; ++i) {
      coded[i] = (static_cast<std::uint32_t>(ints[p[i]]) + kNbMask) ^ kNbMask;
    }
    encode_ints(bw, maxbits - 11, prec, coded);
  }
  if (pad) {
    while (bw.bit_count() - start < maxbits) bw.put_bit(false);
  }
}

inline void decode_block(BitReader& br, std::vector<float>& block, int rank, unsigned maxbits,
                         unsigned maxprec, int minexp, bool skip) {
  const std::uint64_t start = br.position();
  if (!br.get_bit()) {
    std::fill(block.begin(), block.end(), 0.0f);
  } else {
    const int emax = static_cast<int>(br.get(10)) - 256;
    const std::size_t n = block.size();
    std::vector<std::uint32_t> coded(n);
    decode_ints(br, maxbits - 11, precision(emax, maxprec, minexp, rank), coded);
    const auto p = perm(rank);
    std::vector<std::int32_t> ints(n);
    for (std::size_t i = 0; i < n; ++i) {
      ints[p[i]] = static_cast<std::int32_t>((coded[i] ^ kNbMask) - kNbMask);
    }
    inv_xform(ints.data(), rank);
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = static_cast<float>(std::ldexp(static_cast<double>(ints[i]), emax - 30));
    }
  }
  if (skip && br.position() - start < maxbits) br.seek(start + maxbits);
}

/// Visits every block's first-value coordinates in stream order.
template <typename Fn>
void for_each_block(const Dims& dims, int rank, Fn&& fn) {
  const std::size_t nbx = (dims.nx + 3) / 4;
  const std::size_t nby = rank >= 2 ? (dims.ny + 3) / 4 : 1;
  const std::size_t nbz = rank >= 3 ? (dims.nz + 3) / 4 : 1;
  for (std::size_t bz = 0; bz < nbz; ++bz)
    for (std::size_t by = 0; by < nby; ++by)
      for (std::size_t bx = 0; bx < nbx; ++bx) fn(4 * bx, 4 * by, 4 * bz);
}

inline std::size_t extent(int rank, int axis) { return rank > axis ? 4 : 1; }

}  // namespace zfp_ref

/// The ZFP stream of \p data, as zfp::compress() must produce it.
inline std::vector<std::uint8_t> zfp_compress_reference(const std::vector<float>& data,
                                                        const Dims& dims,
                                                        const zfp::Params& params) {
  using namespace zfp_ref;
  const int rank = dims.rank();
  const unsigned unbounded = 16u + 32u * static_cast<unsigned>(block_values(rank));
  unsigned maxbits = unbounded, maxprec = 32;
  int minexp = INT_MIN;
  double mode_param = params.precision;
  if (params.mode == zfp::Mode::kFixedRate) {
    maxbits = zfp::block_bits_for_rate(params.rate, rank);
    mode_param = params.rate;
  } else if (params.mode == zfp::Mode::kFixedAccuracy) {
    minexp = static_cast<int>(std::floor(std::log2(params.tolerance)));
    mode_param = params.tolerance;
  } else {
    maxprec = params.precision;
  }
  const bool fixed_rate = params.mode == zfp::Mode::kFixedRate;

  BitWriter bw;
  std::vector<float> block(block_values(rank));
  for_each_block(dims, rank, [&](std::size_t x0, std::size_t y0, std::size_t z0) {
    std::size_t o = 0;
    for (std::size_t dz = 0; dz < extent(rank, 2); ++dz)
      for (std::size_t dy = 0; dy < extent(rank, 1); ++dy)
        for (std::size_t dx = 0; dx < 4; ++dx) {
          block[o++] = data[dims.index(std::min(x0 + dx, dims.nx - 1),
                                       std::min(y0 + dy, dims.ny - 1),
                                       std::min(z0 + dz, dims.nz - 1))];
        }
    encode_block(bw, block, rank, maxbits, maxprec, minexp, fixed_rate);
  });
  const std::vector<std::uint8_t> payload = bw.finish();

  std::vector<std::uint8_t> out;
  auto put = [&out](std::uint64_t v, int nbytes) {
    for (int i = 0; i < nbytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::uint64_t param_bits;
  std::memcpy(&param_bits, &mode_param, 8);
  put(0x5A465031, 4);  // "ZFP1"
  put(static_cast<std::uint8_t>(params.mode), 1);
  put(dims.nx, 8);
  put(dims.ny, 8);
  put(dims.nz, 8);
  put(maxbits, 4);
  put(param_bits, 8);
  put(payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Reconstruction of a well-formed stream from zfp_compress_reference(),
/// as zfp::decompress() must produce it (no malformed-stream checks).
inline std::vector<float> zfp_decompress_reference(const std::vector<std::uint8_t>& bytes) {
  using namespace zfp_ref;
  auto get = [&bytes](std::size_t at, int nbytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < nbytes; ++i) v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    return v;
  };
  const auto mode = static_cast<zfp::Mode>(bytes[4]);
  const Dims dims{get(5, 8), get(13, 8), get(21, 8)};
  const auto maxbits = static_cast<unsigned>(get(29, 4));
  double mode_param;
  const std::uint64_t param_bits = get(33, 8);
  std::memcpy(&mode_param, &param_bits, 8);
  const std::size_t payload_len = get(41, 8);
  const int rank = dims.rank();
  unsigned maxprec = 32;
  int minexp = INT_MIN;
  if (mode == zfp::Mode::kFixedAccuracy) {
    minexp = static_cast<int>(std::floor(std::log2(mode_param)));
  } else if (mode == zfp::Mode::kFixedPrecision) {
    maxprec = static_cast<unsigned>(mode_param);
  }

  std::vector<float> out(dims.count());
  BitReader br(bytes.data() + 49, payload_len);
  std::vector<float> block(block_values(rank));
  for_each_block(dims, rank, [&](std::size_t x0, std::size_t y0, std::size_t z0) {
    decode_block(br, block, rank, maxbits, maxprec, minexp, mode == zfp::Mode::kFixedRate);
    std::size_t o = 0;
    for (std::size_t dz = 0; dz < extent(rank, 2); ++dz)
      for (std::size_t dy = 0; dy < extent(rank, 1); ++dy)
        for (std::size_t dx = 0; dx < 4; ++dx, ++o) {
          if (x0 + dx < dims.nx && y0 + dy < dims.ny && z0 + dz < dims.nz) {
            out[dims.index(x0 + dx, y0 + dy, z0 + dz)] = block[o];
          }
        }
  });
  return out;
}

}  // namespace cosmo::test
