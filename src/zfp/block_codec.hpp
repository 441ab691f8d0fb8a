/// \file block_codec.hpp
/// \brief ZFP 4^d block codec: exponent alignment, decorrelating lifting
/// transform, negabinary conversion, and embedded bit-plane coding.
///
/// Follows the published ZFP algorithm (Lindstrom 2014, paper ref [12]):
/// each 4, 4x4 or 4x4x4 block of floats is aligned to a common exponent,
/// converted to 32-bit fixed point, decorrelated with the non-orthogonal
/// lifted transform, reordered by total sequency, mapped to negabinary and
/// coded one bit plane at a time with group-testing run-length codes. The
/// bit budget per block (fixed-rate mode) or the bit-plane cutoff
/// (fixed-accuracy mode) truncates the embedded stream.
///
/// There is one kernel: encode_range<Rank> / decode_range<Rank> code a run
/// of consecutive blocks of a field's block grid, with the block size a
/// compile-time constant. The runtime-rank per-block and per-integer-block
/// entry points below are thin dispatches onto it (see docs/architecture.md,
/// "ZFP block kernel").
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "codec/bitstream.hpp"
#include "common/field.hpp"

namespace cosmo::zfp {

/// Fixed-point significand type (two's complement) used inside blocks.
using Int = std::int32_t;
using UInt = std::uint32_t;

/// Bits in the fixed-point representation.
constexpr unsigned kIntPrec = 32;

/// Bits of a non-empty block's header: the non-empty flag plus the biased
/// 10-bit common exponent.
constexpr unsigned kBlockHeaderBits = 11;

/// Values per block for a rank.
constexpr std::size_t block_values(int rank) { return rank == 1 ? 4u : rank == 2 ? 16u : 64u; }

/// Lifted decorrelating transform over 4 values at stride \p s (in place).
void fwd_lift(Int* p, std::size_t s);

/// Inverse of fwd_lift.
void inv_lift(Int* p, std::size_t s);

/// Two's complement -> negabinary.
UInt int2uint(Int x);

/// Negabinary -> two's complement.
Int uint2int(UInt x);

/// Total-sequency permutation for a 4^rank block: perm[i] gives the linear
/// index (within the block) of the i-th coefficient in coding order.
std::span<const std::uint16_t> sequency_permutation(int rank);

/// Number of bit planes kept for a block with maximum exponent \p emax in
/// fixed-accuracy mode (ZFP's precision() helper).
unsigned precision_for(int emax, unsigned maxprec, int minexp, int rank);

/// Per-stream coding parameters shared by every block.
struct BlockParams {
  unsigned maxbits;  ///< bit budget per block
  unsigned maxprec;  ///< bit planes coded at most
  int minexp;        ///< accuracy-mode floor exponent (INT_MIN: none)
  bool fixed_rate;   ///< every block occupies exactly maxbits bits
};

/// Calls fn(std::integral_constant<int, rank>{}) for rank 1, 2 or 3: the
/// one runtime-to-compile-time switch in front of the range kernel.
template <typename Fn>
void dispatch_rank(int rank, Fn&& fn) {
  switch (rank) {
    case 1: fn(std::integral_constant<int, 1>{}); break;
    case 2: fn(std::integral_constant<int, 2>{}); break;
    default: fn(std::integral_constant<int, 3>{}); break;
  }
}

/// Number of 4^rank blocks covering \p dims.
inline std::size_t block_count(const Dims& dims) {
  const int rank = dims.rank();
  return ((dims.nx + 3) / 4) * (rank >= 2 ? (dims.ny + 3) / 4 : 1) *
         (rank >= 3 ? (dims.nz + 3) / 4 : 1);
}

/// Encodes blocks [b0, b1) of the 4^Rank block grid of \p data (linear
/// block order: bz outermost, bx innermost) onto \p bw. Partial blocks at
/// the field edge replicate the last value along each axis.
template <int Rank>
void encode_range(BitWriter& bw, std::span<const float> data, const Dims& dims,
                  std::size_t b0, std::size_t b1, const BlockParams& params);

/// Mirror of encode_range(): decodes blocks [b0, b1) from \p br's current
/// position into \p out (which holds the whole field), writing only the
/// values inside the field. Both are instantiated for Rank 1, 2 and 3 in
/// block_codec.cpp.
template <int Rank>
void decode_range(BitReader& br, std::span<float> out, const Dims& dims, std::size_t b0,
                  std::size_t b1, const BlockParams& params);

/// Encodes one block of 4, 16 or 64 negabinary integers with the embedded
/// bit-plane coder, spending at most \p maxbits bits and coding at most
/// \p maxprec planes. Returns the number of bits written.
unsigned encode_ints(BitWriter& bw, unsigned maxbits, unsigned maxprec,
                     std::span<const UInt> data);

/// Mirror of encode_ints(); reads at most \p maxbits bits. Returns bits read.
unsigned decode_ints(BitReader& br, unsigned maxbits, unsigned maxprec,
                     std::span<UInt> data);

/// Per-block float coding: encode_range<rank> over a single 4^rank block.
/// \p block holds 4^rank values in row-major order. Returns bits written
/// (exactly \p maxbits when \p pad_to_maxbits is set, as fixed-rate mode
/// requires).
unsigned encode_block_float(BitWriter& bw, std::span<const float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool pad_to_maxbits);

/// Mirror of encode_block_float(). Returns bits read.
unsigned decode_block_float(BitReader& br, std::span<float> block, int rank,
                            unsigned maxbits, unsigned maxprec, int minexp,
                            bool skip_to_maxbits);

}  // namespace cosmo::zfp
