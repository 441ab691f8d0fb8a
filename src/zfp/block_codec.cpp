#include "zfp/block_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>

#include "common/error.hpp"

namespace cosmo::zfp {

namespace {

constexpr UInt kNbMask = 0xaaaaaaaau;

// The lifting butterflies intentionally wrap modulo 2^32 (as in reference
// ZFP, whose near-overflow planes round-trip through exactly this wrap).
// Signed +/- overflow is UB, so wrap in unsigned — same bits, defined
// behavior. Right shifts stay on Int (they must be arithmetic); the
// doubling steps use wadd(v, v), the same modular multiply-by-2.
inline Int wadd(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) + static_cast<UInt>(b));
}
inline Int wsub(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) - static_cast<UInt>(b));
}

}  // namespace

void fwd_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  // Non-orthogonal transform (1/16 * [[4,4,4,4],[5,1,-1,-5],[-4,4,4,-4],[-2,6,-6,2]]).
  x = wadd(x, w); x >>= 1; w = wsub(w, x);
  z = wadd(z, y); z >>= 1; y = wsub(y, z);
  x = wadd(x, z); x >>= 1; z = wsub(z, x);
  w = wadd(w, y); w >>= 1; y = wsub(y, w);
  w = wadd(w, y >> 1); y = wsub(y, w >> 1);
  p[0 * s] = x;
  p[1 * s] = y;
  p[2 * s] = z;
  p[3 * s] = w;
}

void inv_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = wadd(y, w >> 1); w = wsub(w, y >> 1);
  y = wadd(y, w); w = wadd(w, w); w = wsub(w, y);
  z = wadd(z, x); x = wadd(x, x); x = wsub(x, z);
  y = wadd(y, z); z = wadd(z, z); z = wsub(z, y);
  w = wadd(w, x); x = wadd(x, x); x = wsub(x, w);
  p[0 * s] = x;
  p[1 * s] = y;
  p[2 * s] = z;
  p[3 * s] = w;
}

UInt int2uint(Int x) { return (static_cast<UInt>(x) + kNbMask) ^ kNbMask; }

Int uint2int(UInt x) { return static_cast<Int>((x ^ kNbMask) - kNbMask); }

unsigned precision_for(int emax, unsigned maxprec, int minexp, int rank) {
  if (emax == INT_MIN) return 0;
  const long p = static_cast<long>(emax) - minexp + 2l * (rank + 1);
  if (p <= 0) return 0;
  return std::min<unsigned>(maxprec, static_cast<unsigned>(p));
}

namespace {

/// Total-sequency permutation: coefficients in increasing degree i + j + k,
/// ties in increasing linear index (a stable sort by degree).
template <int Rank>
constexpr std::array<std::uint16_t, block_values(Rank)> make_perm() {
  constexpr std::size_t n = block_values(Rank);
  std::array<std::uint16_t, n> perm{};
  std::size_t o = 0;
  for (unsigned degree = 0; degree <= 9; ++degree) {
    for (unsigned idx = 0; idx < n; ++idx) {
      if ((idx & 3u) + ((idx >> 2) & 3u) + ((idx >> 4) & 3u) == degree) {
        perm[o++] = static_cast<std::uint16_t>(idx);
      }
    }
  }
  return perm;
}

template <int Rank>
constexpr auto kPerm = make_perm<Rank>();

/// 2^e as a double, for e in the normal range [-1022, 1023]. Multiplying by
/// it is exact whenever the product is a normal double, so it equals
/// std::ldexp(v, e) bit for bit. The kernel's exponents stay far inside:
/// encode scales by 2^(30 - emax) with emax in [-148, 128] (any finite
/// float), decode by 2^(emax - 30) with emax in [-256, 767] (any 10-bit
/// stored exponent), and |values| stay within [2^-149, 2^31] either side.
inline double pow2(int e) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

/// Common block exponent (frexp convention: max |x| < 2^emax), INT_MIN for
/// an all-zero block. A normal float's exponent is read from its bits;
/// denormals and Inf take the frexp path.
inline int block_emax(float max_abs) {
  if (max_abs == 0.0f) return INT_MIN;
  const std::uint32_t biased = (std::bit_cast<std::uint32_t>(max_abs) >> 23) & 0xffu;
  if (biased - 1u < 254u) return static_cast<int>(biased) - 126;
  int e = 0;
  std::frexp(max_abs, &e);
  return e;
}

/// Forward decorrelating transform over a 4^Rank block in place.
template <int Rank>
inline void fwd_xform(Int* p) {
  if constexpr (Rank == 1) {
    fwd_lift(p, 1);
  } else if constexpr (Rank == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + x, 4);
  } else {
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t y = 0; y < 4; ++y) fwd_lift(p + 16 * z + 4 * y, 1);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 16 * z + x, 4);
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x) fwd_lift(p + 4 * y + x, 16);
  }
}

/// Inverse transform (reverse axis order).
template <int Rank>
inline void inv_xform(Int* p) {
  if constexpr (Rank == 1) {
    inv_lift(p, 1);
  } else if constexpr (Rank == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(p + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 4 * y, 1);
  } else {
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 4 * y + x, 16);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t x = 0; x < 4; ++x) inv_lift(p + 16 * z + x, 4);
    for (std::size_t z = 0; z < 4; ++z)
      for (std::size_t y = 0; y < 4; ++y) inv_lift(p + 16 * z + 4 * y, 1);
  }
}

/// One butterfly stage of the 32x32 bit transpose, run on both 32-bit
/// halves of each word at once: swaps the J-wide off-diagonal sub-blocks
/// selected by mask M. M keeps the top J bits of each half clear, so no
/// bit crosses between the halves.
template <unsigned J, std::uint64_t M>
inline void transpose_stage(std::uint64_t* a) {
  for (unsigned b = 0; b < 32; b += 2 * J) {
    for (unsigned k = b; k < b + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & M;
      a[k + J] ^= t;
      a[k] ^= t << J;
    }
  }
}

/// Two side-by-side in-place 32x32 bit transposes: afterwards bit i of
/// half h of a[j] is what bit j of half h of a[i] was. With values i and
/// 32 + i in the halves of a[i], that turns 64 values into 32 bit planes
/// (bit i of plane k = bit k of value i) — and, being an involution, back.
inline void transpose_planes(std::uint64_t* a) {
  transpose_stage<16, 0x0000ffff0000ffffull>(a);
  transpose_stage<8, 0x00ff00ff00ff00ffull>(a);
  transpose_stage<4, 0x0f0f0f0f0f0f0f0full>(a);
  transpose_stage<2, 0x3333333333333333ull>(a);
  transpose_stage<1, 0x5555555555555555ull>(a);
}

/// Bit planes of N = 16 or 64 values: bit i of planes[k] is bit k of
/// data[i]. (4-value blocks extract each coded plane on the fly instead.)
template <std::size_t N>
inline void to_planes(const UInt* data, std::uint64_t* planes) {
  for (std::size_t i = 0; i < 32; ++i) {
    std::uint64_t v = i < N ? data[i] : 0;
    if constexpr (N == 64) v |= static_cast<std::uint64_t>(data[32 + i]) << 32;
    planes[i] = v;
  }
  transpose_planes(planes);
}

/// Inverse of to_planes().
template <std::size_t N>
inline void from_planes(std::uint64_t* planes, UInt* data) {
  transpose_planes(planes);
  for (std::size_t i = 0; i < N && i < 32; ++i) data[i] = static_cast<UInt>(planes[i]);
  if constexpr (N == 64) {
    for (std::size_t i = 0; i < 32; ++i) data[32 + i] = static_cast<UInt>(planes[i] >> 32);
  }
}

/// Embedded bit-plane coder over N negabinary integers. Per plane k (from
/// the top): the n values already significant are sent verbatim, then
/// group tests — a 1 means "another value becomes significant", followed
/// by the zero run up to it and its 1 bit (implied for the last value); a
/// 0 ends the plane. Each group test and its run go out as one append.
template <std::size_t N>
unsigned encode_planes(BitWriter::Appender& ap, unsigned maxbits, unsigned maxprec,
                       const UInt* data) {
  std::uint64_t planes[N == 4 ? 1 : kIntPrec] = {};
  if constexpr (N != 4) to_planes<N>(data, planes);
  const unsigned kmin = kIntPrec > maxprec ? kIntPrec - maxprec : 0;
  unsigned bits = maxbits;
  unsigned n = 0;
  for (unsigned k = kIntPrec; bits && k-- > kmin;) {
    std::uint64_t x;
    if constexpr (N == 4) {
      x = ((data[0] >> k) & 1u) | ((data[1] >> k) & 1u) << 1 | ((data[2] >> k) & 1u) << 2 |
          ((data[3] >> k) & 1u) << 3;
    } else {
      x = planes[k];
    }
    const unsigned m = std::min(n, bits);
    bits -= m;
    if (m != 0) {
      ap.put(m < 64 ? x & ((std::uint64_t{1} << m) - 1) : x, m);
      x = m < 64 ? x >> m : 0;
    }
    while (n < N && bits) {
      --bits;
      if (x == 0) {
        ap.put(0, 1);
        break;
      }
      const unsigned z = static_cast<unsigned>(std::countr_zero(x));
      const bool last = n + z == N - 1;  // its significance is implied
      const unsigned run = last ? z : z + 1;
      if (run > bits) {  // budget ends inside the zero run
        ap.put(1, 1 + bits);
        bits = 0;
        break;
      }
      ap.put(last ? 1 : 1 | (std::uint64_t{2} << z), 1 + run);
      bits -= run;
      n += z + 1;
      x = z < 63 ? x >> (z + 1) : 0;
    }
  }
  return maxbits - bits;
}

/// Mirror of encode_planes(). Zero runs are scanned a peeked window at a
/// time with countr_zero; the bit accounting matches the per-bit coder
/// exactly, so a truncated budget stops at the same position.
template <std::size_t N>
unsigned decode_planes(BitReader& br, unsigned maxbits, unsigned maxprec, UInt* data) {
  std::uint64_t planes[N == 4 ? 1 : kIntPrec] = {};
  if constexpr (N == 4) std::fill(data, data + N, 0u);
  const unsigned kmin = kIntPrec > maxprec ? kIntPrec - maxprec : 0;
  unsigned bits = maxbits;
  unsigned n = 0;
  for (unsigned k = kIntPrec; bits && k-- > kmin;) {
    const unsigned m = std::min(n, bits);
    bits -= m;
    std::uint64_t x = m != 0 ? br.get(m) : 0;
    while (n < N && bits) {
      --bits;
      if (!br.get_bit()) break;  // group test: no more significant values
      while (n < N - 1 && bits) {
        const unsigned chunk = std::min({bits, static_cast<unsigned>(N - 1 - n),
                                         BitReader::kMaxPeekBits});
        const std::uint64_t window = br.peek(chunk);
        if (window == 0) {  // the whole window is insignificant values
          br.skip(chunk);
          bits -= chunk;
          n += chunk;
          continue;
        }
        const unsigned z = static_cast<unsigned>(std::countr_zero(window));
        br.skip(z + 1);  // z zeros + the significance bit that ends the run
        bits -= z + 1;
        n += z;
        break;
      }
      x += std::uint64_t{1} << n;
      ++n;
    }
    if constexpr (N == 4) {
      for (std::size_t i = 0; i < N; ++i) data[i] |= static_cast<UInt>((x >> i) & 1u) << k;
    } else {
      planes[k] = x;
    }
  }
  if constexpr (N != 4) from_planes<N>(planes, data);
  return maxbits - bits;
}

/// Visits blocks [b0, b1) of the block grid in linear order (bz outermost,
/// bx innermost) as fn(x0, y0, z0, interior), where (x0, y0, z0) is the
/// block's first value and interior means all 4^Rank values lie inside.
template <int Rank, typename Fn>
inline void for_each_block(const Dims& dims, std::size_t b0, std::size_t b1, Fn&& fn) {
  const std::size_t nbx = (dims.nx + 3) / 4;
  const std::size_t nby = Rank >= 2 ? (dims.ny + 3) / 4 : 1;
  std::size_t bx = b0 % nbx;
  std::size_t by = (b0 / nbx) % nby;
  std::size_t bz = b0 / (nbx * nby);
  for (std::size_t b = b0; b < b1; ++b) {
    const std::size_t x0 = 4 * bx, y0 = 4 * by, z0 = 4 * bz;
    const bool interior = x0 + 4 <= dims.nx && (Rank < 2 || y0 + 4 <= dims.ny) &&
                          (Rank < 3 || z0 + 4 <= dims.nz);
    fn(x0, y0, z0, interior);
    if (++bx == nbx) {
      bx = 0;
      if (++by == nby) {
        by = 0;
        ++bz;
      }
    }
  }
}

constexpr std::size_t extent_y(int rank) { return rank >= 2 ? 4 : 1; }
constexpr std::size_t extent_z(int rank) { return rank >= 3 ? 4 : 1; }

/// Gathers the block at (x0, y0, z0). Partial blocks replicate the last
/// value along each axis (ZFP's padding keeps values in the field's range,
/// so the common exponent is unaffected).
template <int Rank>
inline void gather(const float* data, const Dims& dims, std::size_t x0, std::size_t y0,
                   std::size_t z0, bool interior, float* block) {
  std::size_t o = 0;
  for (std::size_t dz = 0; dz < extent_z(Rank); ++dz) {
    for (std::size_t dy = 0; dy < extent_y(Rank); ++dy) {
      if (interior) {
        const float* row = data + dims.index(x0, y0 + dy, z0 + dz);
        for (std::size_t dx = 0; dx < 4; ++dx) block[o++] = row[dx];
        continue;
      }
      const std::size_t z = std::min(z0 + dz, dims.nz - 1);
      const std::size_t y = std::min(y0 + dy, dims.ny - 1);
      for (std::size_t dx = 0; dx < 4; ++dx) {
        block[o++] = data[dims.index(std::min(x0 + dx, dims.nx - 1), y, z)];
      }
    }
  }
}

/// Writes a decoded block back, skipping padded lanes of partial blocks.
template <int Rank>
inline void scatter(float* data, const Dims& dims, std::size_t x0, std::size_t y0,
                    std::size_t z0, bool interior, const float* block) {
  std::size_t o = 0;
  for (std::size_t dz = 0; dz < extent_z(Rank); ++dz) {
    for (std::size_t dy = 0; dy < extent_y(Rank); ++dy, o += 4) {
      if (interior) {
        float* row = data + dims.index(x0, y0 + dy, z0 + dz);
        for (std::size_t dx = 0; dx < 4; ++dx) row[dx] = block[o + dx];
        continue;
      }
      const std::size_t y = y0 + dy, z = z0 + dz;
      if (y >= dims.ny || z >= dims.nz) continue;
      for (std::size_t dx = 0; dx < 4 && x0 + dx < dims.nx; ++dx) {
        data[dims.index(x0 + dx, y, z)] = block[o + dx];
      }
    }
  }
}

/// Codes one gathered block: common exponent, fixed point, transform,
/// sequency order, negabinary, bit planes; padded to maxbits in fixed-rate
/// mode.
template <int Rank>
inline void encode_block(BitWriter::Appender& ap, const float* block, const BlockParams& params) {
  constexpr std::size_t n = block_values(Rank);
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(block[i]));
  const int emax = block_emax(max_abs);
  const unsigned prec = precision_for(emax, params.maxprec, params.minexp, Rank);
  unsigned used = 1;
  if (prec == 0) {
    ap.put(0, 1);  // empty block
  } else {
    // Biased exponent: frexp exponents of finite floats fit in [-148, 128].
    ap.put(1u | (static_cast<std::uint64_t>(emax + 256) << 1), kBlockHeaderBits);
    // Align to the common exponent and convert to fixed point (2 headroom
    // bits absorb transform gain).
    const double scale = pow2(static_cast<int>(kIntPrec) - 2 - emax);
    Int ints[n] = {};
    for (std::size_t i = 0; i < n; ++i) {
      ints[i] = static_cast<Int>(static_cast<double>(block[i]) * scale);
    }
    fwd_xform<Rank>(ints);
    UInt coded[n] = {};
    for (std::size_t i = 0; i < n; ++i) coded[i] = int2uint(ints[kPerm<Rank>[i]]);
    used = kBlockHeaderBits +
           encode_planes<n>(ap, params.maxbits - kBlockHeaderBits, prec, coded);
  }
  if (params.fixed_rate) {
    for (unsigned pad = params.maxbits - used; pad != 0;) {
      const unsigned chunk = std::min(pad, 64u);
      ap.put(0, chunk);
      pad -= chunk;
    }
  }
}

/// Mirror of encode_block(); in fixed-rate mode leaves the reader at the
/// next block (a skip for short gaps, a seek past longer ones).
template <int Rank>
inline void decode_block(BitReader& br, float* block, const BlockParams& params) {
  constexpr std::size_t n = block_values(Rank);
  const std::uint64_t start = br.position();
  // The header read as one window: past the end of the stream the missing
  // bits peek as zero and the skip throws, as a bit-by-bit read would.
  const std::uint64_t head = br.peek(kBlockHeaderBits);
  if ((head & 1u) == 0) {
    br.skip(1);
    for (std::size_t i = 0; i < n; ++i) block[i] = 0.0f;
  } else {
    br.skip(kBlockHeaderBits);
    const int emax = static_cast<int>(head >> 1) - 256;
    const unsigned prec = precision_for(emax, params.maxprec, params.minexp, Rank);
    UInt coded[n] = {};
    decode_planes<n>(br, params.maxbits - kBlockHeaderBits, prec, coded);
    Int ints[n] = {};
    for (std::size_t i = 0; i < n; ++i) ints[kPerm<Rank>[i]] = uint2int(coded[i]);
    inv_xform<Rank>(ints);
    const double scale = pow2(emax + 2 - static_cast<int>(kIntPrec));
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = static_cast<float>(static_cast<double>(ints[i]) * scale);
    }
  }
  if (params.fixed_rate) {
    const std::uint64_t used = br.position() - start;
    if (used < params.maxbits) {
      const std::uint64_t gap = params.maxbits - used;
      if (gap <= BitReader::kMaxPeekBits) {
        br.skip(static_cast<unsigned>(gap));
      } else {
        br.seek(start + params.maxbits);
      }
    }
  }
}

/// The single 4^rank block of the per-block entry points, as a field.
Dims block_dims(int rank) { return {4, extent_y(rank), extent_z(rank)}; }

}  // namespace

std::span<const std::uint16_t> sequency_permutation(int rank) {
  require(rank >= 1 && rank <= 3, "zfp: rank must be 1..3");
  switch (rank) {
    case 1: return kPerm<1>;
    case 2: return kPerm<2>;
    default: return kPerm<3>;
  }
}

template <int Rank>
void encode_range(BitWriter& bw, std::span<const float> data, const Dims& dims,
                  std::size_t b0, std::size_t b1, const BlockParams& params) {
  require(params.maxbits > kBlockHeaderBits, "zfp: bit budget smaller than block header");
  if (params.fixed_rate) bw.reserve_bits(static_cast<std::uint64_t>(b1 - b0) * params.maxbits);
  BitWriter::Appender ap(bw);
  float block[block_values(Rank)] = {};
  for_each_block<Rank>(dims, b0, b1, [&](std::size_t x0, std::size_t y0, std::size_t z0,
                                         bool interior) {
    gather<Rank>(data.data(), dims, x0, y0, z0, interior, block);
    encode_block<Rank>(ap, block, params);
  });
}

template <int Rank>
void decode_range(BitReader& br, std::span<float> out, const Dims& dims, std::size_t b0,
                  std::size_t b1, const BlockParams& params) {
  // A local reader keeps the cursor in registers across the float stores.
  BitReader local = br;
  float block[block_values(Rank)] = {};
  for_each_block<Rank>(dims, b0, b1, [&](std::size_t x0, std::size_t y0, std::size_t z0,
                                         bool interior) {
    decode_block<Rank>(local, block, params);
    scatter<Rank>(out.data(), dims, x0, y0, z0, interior, block);
  });
  br = local;
}

template void encode_range<1>(BitWriter&, std::span<const float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);
template void encode_range<2>(BitWriter&, std::span<const float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);
template void encode_range<3>(BitWriter&, std::span<const float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);
template void decode_range<1>(BitReader&, std::span<float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);
template void decode_range<2>(BitReader&, std::span<float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);
template void decode_range<3>(BitReader&, std::span<float>, const Dims&, std::size_t,
                              std::size_t, const BlockParams&);

unsigned encode_ints(BitWriter& bw, unsigned maxbits, unsigned maxprec,
                     std::span<const UInt> data) {
  BitWriter::Appender ap(bw);
  switch (data.size()) {
    case 4: return encode_planes<4>(ap, maxbits, maxprec, data.data());
    case 16: return encode_planes<16>(ap, maxbits, maxprec, data.data());
    case 64: return encode_planes<64>(ap, maxbits, maxprec, data.data());
    default: throw InvalidArgument("zfp: a block holds 4, 16 or 64 values");
  }
}

unsigned decode_ints(BitReader& br, unsigned maxbits, unsigned maxprec,
                     std::span<UInt> data) {
  switch (data.size()) {
    case 4: return decode_planes<4>(br, maxbits, maxprec, data.data());
    case 16: return decode_planes<16>(br, maxbits, maxprec, data.data());
    case 64: return decode_planes<64>(br, maxbits, maxprec, data.data());
    default: throw InvalidArgument("zfp: a block holds 4, 16 or 64 values");
  }
}

unsigned encode_block_float(BitWriter& bw, std::span<const float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool pad_to_maxbits) {
  require(rank >= 1 && rank <= 3 && block.size() == block_values(rank),
          "zfp: bad block size");
  const std::uint64_t start = bw.bit_count();
  const BlockParams params{maxbits, maxprec, minexp, pad_to_maxbits};
  dispatch_rank(rank, [&](auto r) {
    encode_range<decltype(r)::value>(bw, block, block_dims(rank), 0, 1, params);
  });
  return static_cast<unsigned>(bw.bit_count() - start);
}

unsigned decode_block_float(BitReader& br, std::span<float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool skip_to_maxbits) {
  require(rank >= 1 && rank <= 3 && block.size() == block_values(rank),
          "zfp: bad block size");
  const std::uint64_t start = br.position();
  const BlockParams params{maxbits, maxprec, minexp, skip_to_maxbits};
  dispatch_rank(rank, [&](auto r) {
    decode_range<decltype(r)::value>(br, block, block_dims(rank), 0, 1, params);
  });
  return static_cast<unsigned>(br.position() - start);
}

}  // namespace cosmo::zfp
