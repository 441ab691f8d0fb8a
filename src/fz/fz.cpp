#include "fz/fz.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>

#include "codec/chunk_table.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::fz {

namespace {

constexpr std::uint32_t kMagic = 0x31435A46;  // "FZC1"
constexpr std::size_t kMaxChunkValues = 1u << 20;
constexpr std::size_t kGroupBytes = 16;  // zero-run sparsifier group size
constexpr std::size_t kPlanes = 16;      // bit-planes of a 16-bit symbol
/// Bytes before the chunk size table: magic, flags, dims, bound, radius,
/// chunk size, chunk count.
constexpr std::size_t kHeaderBytes = 52;
/// Chunks stepped together through the quantize (encode) and reconstruct
/// (decode) chains. Each chain is serial through `prev`; interleaving four
/// independent chunks value by value lets the core overlap their latency.
constexpr std::size_t kLanes = 4;
/// Chunks per task when placing payloads: small fields copy inline.
constexpr std::size_t kPlaceGrain = 16;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Little-endian deserializer with overflow-safe bounds checks.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // pos <= size() is an invariant, so compare against the remaining byte
  // count instead of forming pos + n (which wraps for corrupted lengths).
  void need(std::size_t n) const {
    require_format(n <= bytes.size() - pos, "fz: truncated stream");
  }
  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  std::uint32_t u32() {
    need(4);
    pos += 4;
    return get_u32(bytes.data() + pos - 4);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | static_cast<std::uint64_t>(u32()) << 32;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    need(n);
    auto s = bytes.subspan(pos, n);
    pos += n;
    return s;
  }
};

/// Symbol remap: code 0 (unpredictable) stays 0; a predictable code is
/// re-centered around the radius and zigzag-encoded so that well-predicted
/// values become *small* symbols. Raw codes cluster at the radius (0x8000),
/// which would make the high bit-planes all-ones and defeat the zero-run
/// sparsifier; after the remap those planes are almost entirely zero.
std::uint16_t remap_code(std::uint32_t code, std::uint32_t radius) {
  const std::int32_t centered = static_cast<std::int32_t>(code) - static_cast<std::int32_t>(radius);
  const std::uint32_t zigzag =
      (static_cast<std::uint32_t>(centered) << 1) ^ static_cast<std::uint32_t>(centered >> 31);
  return static_cast<std::uint16_t>(zigzag + 1);
}

/// Inverse of remap_code for a nonzero symbol; throws FormatError when the
/// symbol decodes outside the quantizer's code space.
std::uint32_t unmap_symbol(std::uint16_t symbol, std::uint32_t radius) {
  const std::uint32_t zigzag = static_cast<std::uint32_t>(symbol) - 1;
  const std::int32_t centered =
      static_cast<std::int32_t>(zigzag >> 1) ^ -static_cast<std::int32_t>(zigzag & 1);
  const std::int64_t code = static_cast<std::int64_t>(centered) + radius;
  require_format(code >= 1 && code <= 2 * static_cast<std::int64_t>(radius) - 1,
                 "fz: symbol outside code space");
  return static_cast<std::uint32_t>(code);
}

// --- Bit planes -------------------------------------------------------------

constexpr std::size_t plane_bytes(std::size_t count) { return ceil_div(count, 8); }

/// Transposes the 8x8 bit matrix in \p x (bit 8r+c moves to bit 8c+r) with
/// three delta swaps. It is its own inverse.
constexpr std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  return x ^ t ^ (t << 28);
}

/// Packs four 16-bit symbols into one word, symbol k in bits [16k, 16k+16).
inline std::uint64_t pack4(const std::uint16_t* s) {
  return s[0] | static_cast<std::uint64_t>(s[1]) << 16 | static_cast<std::uint64_t>(s[2]) << 32 |
         static_cast<std::uint64_t>(s[3]) << 48;
}

/// Gathers the low bytes of \p w's four 16-bit lanes into its low 32 bits.
constexpr std::uint64_t gather_low_bytes(std::uint64_t w) {
  w &= 0x00FF00FF00FF00FFull;
  w = (w | w >> 8) & 0x0000FFFF0000FFFFull;
  return (w | w >> 16) & 0xFFFFFFFFull;
}

/// Inverse of gather_low_bytes: the low 4 bytes of \p w into the low bytes
/// of four 16-bit lanes.
constexpr std::uint64_t spread_low_bytes(std::uint64_t w) {
  w &= 0xFFFFFFFFull;
  w = (w | w << 16) & 0x0000FFFF0000FFFFull;
  return (w | w << 8) & 0x00FF00FF00FF00FFull;
}

/// Shuffles the 8 symbols at \p s into byte \p j of each plane. Byte k of
/// the low (high) word is symbol k's low (high) byte, so after the
/// transpose byte b holds bit b (8 + b) of all eight symbols. The planes
/// are zero on entry, so an all-zero word is skipped.
inline void shuffle_group(const std::uint16_t* s, std::uint8_t* planes, std::size_t pb,
                          std::size_t j) {
  const std::uint64_t a = pack4(s);
  const std::uint64_t b = pack4(s + 4);
  std::uint64_t lo = gather_low_bytes(a) | gather_low_bytes(b) << 32;
  std::uint64_t hi = gather_low_bytes(a >> 8) | gather_low_bytes(b >> 8) << 32;
  if (lo != 0) {
    lo = transpose8(lo);
    for (unsigned k = 0; k < 8; ++k) planes[k * pb + j] = static_cast<std::uint8_t>(lo >> (8 * k));
  }
  if (hi != 0) {
    hi = transpose8(hi);
    for (unsigned k = 0; k < 8; ++k) {
      planes[(8 + k) * pb + j] = static_cast<std::uint8_t>(hi >> (8 * k));
    }
  }
}

/// Inverse of shuffle_group: the 8 symbols of plane byte \p j into \p s.
inline void unshuffle_group(const std::uint8_t* planes, std::size_t pb, std::size_t j,
                            std::uint16_t* s) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (unsigned k = 0; k < 8; ++k) {
    lo |= static_cast<std::uint64_t>(planes[k * pb + j]) << (8 * k);
    hi |= static_cast<std::uint64_t>(planes[(8 + k) * pb + j]) << (8 * k);
  }
  lo = transpose8(lo);
  if (hi != 0) hi = transpose8(hi);
  const std::uint64_t a = spread_low_bytes(lo) | spread_low_bytes(hi) << 8;
  const std::uint64_t b = spread_low_bytes(lo >> 32) | spread_low_bytes(hi >> 32) << 8;
  for (unsigned k = 0; k < 4; ++k) {
    s[k] = static_cast<std::uint16_t>(a >> (16 * k));
    s[4 + k] = static_cast<std::uint16_t>(b >> (16 * k));
  }
}

/// Writes the 16 bit-planes of \p count symbols to \p planes
/// (kPlanes * plane_bytes(count) bytes).
void shuffle_planes(const std::uint16_t* symbols, std::size_t count, std::uint8_t* planes) {
  const std::size_t pb = plane_bytes(count);
  if (pb == 0) return;
  std::memset(planes, 0, kPlanes * pb);
  const std::size_t full = count / 8;
  for (std::size_t j = 0; j < full; ++j) shuffle_group(symbols + 8 * j, planes, pb, j);
  if (full < pb) {
    std::array<std::uint16_t, 8> tail{};
    std::copy(symbols + 8 * full, symbols + count, tail.begin());
    shuffle_group(tail.data(), planes, pb, full);
  }
}

/// Inverse of shuffle_planes. Padding bits past \p count in each plane's
/// last byte must be zero.
void unshuffle_planes(const std::uint8_t* planes, std::size_t count, std::uint16_t* symbols) {
  const std::size_t pb = plane_bytes(count);
  const std::size_t full = count / 8;
  if (full < pb) {
    const unsigned used = static_cast<unsigned>(count % 8);
    for (std::size_t b = 0; b < kPlanes; ++b) {
      require_format((planes[b * pb + pb - 1] >> used) == 0,
                     "fz: nonzero padding in bitshuffle tail");
    }
  }
  for (std::size_t j = 0; j < full; ++j) unshuffle_group(planes, pb, j, symbols + 8 * j);
  if (full < pb) {
    std::array<std::uint16_t, 8> tail{};
    unshuffle_group(planes, pb, full, tail.data());
    std::copy(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(count - 8 * full),
              symbols + 8 * full);
  }
}

// --- Zero-run sparsifier ------------------------------------------------------

/// Bytes a zero-run stream of \p len input bytes can take at most.
constexpr std::size_t zero_run_bound(std::size_t len) {
  return 8 + ceil_div(ceil_div(len, kGroupBytes), 8) + len;
}

/// Writes the zero-run stream of \p len bytes at \p src to \p dst, which
/// holds zero_run_bound(len) bytes. Returns the bytes written.
std::size_t zero_run_write(const std::uint8_t* src, std::size_t len, std::uint8_t* dst) {
  put_u64(dst, len);
  const std::size_t groups = ceil_div(len, kGroupBytes);
  std::uint8_t* bitmap = dst + 8;
  std::memset(bitmap, 0, ceil_div(groups, 8));
  std::uint8_t* p = bitmap + ceil_div(groups, 8);
  const std::size_t full = len / kGroupBytes;
  for (std::size_t g = 0; g < full; ++g) {
    const std::uint8_t* group = src + g * kGroupBytes;
    std::uint64_t w[2];
    std::memcpy(w, group, kGroupBytes);
    const bool nonzero = (w[0] | w[1]) != 0;
    // Copy unconditionally and advance only past a kept group. Before group
    // g, p is at most 16g bytes into the payload, so the copy stays inside
    // the bound.
    std::memcpy(p, group, kGroupBytes);
    p += nonzero ? kGroupBytes : 0;
    bitmap[g / 8] |= static_cast<std::uint8_t>(static_cast<unsigned>(nonzero) << (g % 8));
  }
  if (full < groups) {
    const std::uint8_t* tail = src + full * kGroupBytes;
    const std::size_t n = len - full * kGroupBytes;
    if (std::any_of(tail, tail + n, [](std::uint8_t b) { return b != 0; })) {
      bitmap[full / 8] |= static_cast<std::uint8_t>(1u << (full % 8));
      std::memcpy(p, tail, n);
      p += n;
    }
  }
  return static_cast<std::size_t>(p - dst);
}

/// A zero-run stream's declared length and its group bitmap.
struct ZeroRunHeader {
  std::size_t len = 0;
  std::span<const std::uint8_t> bitmap;
};

/// Reads a zero-run stream's length and bitmap from \p r. When
/// \p expected_len is non-null the declared length must match it exactly
/// (the chunk decoder knows the plane size up front); otherwise the length
/// is bounded by what the bitmap alone implies about the input size, so a
/// corrupted header cannot drive an unbounded allocation.
ZeroRunHeader zero_run_header(ByteReader& r, const std::size_t* expected_len) {
  const std::uint64_t declared = r.u64();
  if (expected_len != nullptr) {
    require_format(declared == *expected_len, "fz: zero-run length mismatch");
  }
  ZeroRunHeader h;
  h.len = static_cast<std::size_t>(declared);
  require_format(declared == h.len, "fz: zero-run length overflow");
  const std::size_t bitmap_bytes = ceil_div(ceil_div(h.len, kGroupBytes), 8);
  // A valid stream carries at least the bitmap, which caps len at roughly
  // 128x the remaining input — the overalloc guard for corrupted lengths.
  require_format(bitmap_bytes <= r.remaining(), "fz: zero-run bitmap truncated");
  h.bitmap = r.view(bitmap_bytes);
  return h;
}

/// Reads the kept groups that \p h flags from \p r into \p dst (h.len
/// bytes), zeroing the others. Bitmap bits past the last group are ignored.
/// The kept bytes are checked against the input once, up front.
void zero_run_fill(ByteReader& r, const ZeroRunHeader& h, std::uint8_t* dst) {
  const std::size_t groups = ceil_div(h.len, kGroupBytes);
  const auto kept = [&](std::size_t g) { return (h.bitmap[g / 8] >> (g % 8) & 1u) != 0; };
  std::size_t kept_bytes = 0;
  for (std::size_t i = 0; i < groups / 8; ++i) {
    kept_bytes += kGroupBytes * static_cast<std::size_t>(std::popcount(h.bitmap[i]));
  }
  for (std::size_t g = groups / 8 * 8; g < groups; ++g) kept_bytes += kept(g) ? kGroupBytes : 0;
  if (h.len % kGroupBytes != 0 && kept(groups - 1)) kept_bytes -= kGroupBytes - h.len % kGroupBytes;
  const std::uint8_t* src = r.view(kept_bytes).data();
  const auto group = [&](bool keep, std::size_t n) {
    if (keep) {
      std::memcpy(dst, src, n);
      src += n;
    } else {
      std::memset(dst, 0, n);
    }
    dst += n;
  };
  // A bitmap byte covers 8 full groups; an all-kept or all-zero byte is
  // one copy or one fill.
  constexpr std::size_t kRun = 8 * kGroupBytes;
  const std::size_t runs = h.len / kRun;
  for (std::size_t i = 0; i < runs; ++i) {
    const std::uint8_t bits = h.bitmap[i];
    if (bits == 0xFF || bits == 0) {
      group(bits != 0, kRun);
    } else {
      for (unsigned k = 0; k < 8; ++k) group((bits >> k & 1u) != 0, kGroupBytes);
    }
  }
  for (std::size_t g = runs * 8; g < groups; ++g) {
    group(kept(g), std::min(kGroupBytes, h.len - g * kGroupBytes));
  }
}

// --- Chunk kernel -------------------------------------------------------------

/// Bytes one chunk payload of \p count values can take at most.
constexpr std::size_t chunk_bound(std::size_t count) {
  return 4 + 4 * count + zero_run_bound(kPlanes * plane_bytes(count));
}

/// Per-task buffers for up to kLanes chunks, sized once and reused by every
/// chunk group of the task.
struct Scratch {
  Scratch(std::size_t lanes, std::size_t chunk_values, bool encode)
      : symbols(lanes * chunk_values), unpredictable(encode ? lanes * chunk_values : 0),
        planes(kPlanes * plane_bytes(chunk_values)) {}
  std::vector<std::uint16_t> symbols;
  std::vector<float> unpredictable;  // encode only
  std::vector<std::uint8_t> planes;
};

/// Chunk encoder: quantizes L chunks in lockstep, then writes each one's
/// payload — unpredictable count and values, then the zero-run stream of
/// its bitshuffled symbols.
struct Encoder {
  std::span<const float> data;
  std::size_t chunk_values;
  std::uint32_t radius;
  sz::Quantizer quantizer;
  std::vector<const std::uint8_t*> payload;  // per chunk, into its task's staging
  std::vector<std::size_t> payload_bytes;
  std::vector<std::size_t> unpredictable;

  /// Codes chunks [c, c + L), each \p count values, to \p dst; returns the
  /// end of what it wrote.
  template <std::size_t L>
  std::uint8_t* code(std::size_t c, std::size_t count, Scratch& s, std::uint8_t* dst) {
    std::array<const float*, L> src;
    std::array<std::uint16_t*, L> symbols;
    std::array<float*, L> unpred;
    for (std::size_t l = 0; l < L; ++l) {
      src[l] = data.data() + (c + l) * chunk_values;
      symbols[l] = s.symbols.data() + l * chunk_values;
      unpred[l] = s.unpredictable.data() + l * chunk_values;
    }
    std::array<float, L> prev{};  // fixed seed => chunks are independent
    std::array<std::size_t, L> n_unpred{};
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        const float v = src[l][i];
        const auto q = quantizer.quantize(v, prev[l]);
        if (q.code == 0) {
          symbols[l][i] = 0;
          unpred[l][n_unpred[l]++] = v;
          prev[l] = v;
        } else {
          symbols[l][i] = remap_code(q.code, radius);
          prev[l] = q.reconstructed;
        }
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      std::uint8_t* p = dst;
      put_u32(p, static_cast<std::uint32_t>(n_unpred[l]));
      p += 4;
      for (std::size_t k = 0; k < n_unpred[l]; ++k, p += 4) {
        put_u32(p, std::bit_cast<std::uint32_t>(unpred[l][k]));
      }
      shuffle_planes(symbols[l], count, s.planes.data());
      p += zero_run_write(s.planes.data(), kPlanes * plane_bytes(count), p);
      payload[c + l] = dst;
      payload_bytes[c + l] = static_cast<std::size_t>(p - dst);
      unpredictable[c + l] = n_unpred[l];
      dst = p;
    }
    return dst;
  }
};

/// Chunk decoder: parses L chunk payloads into symbols, then reconstructs
/// them in lockstep straight into the output.
struct Decoder {
  const ChunkTable& chunks;
  std::size_t chunk_values;
  std::uint32_t radius;
  sz::Quantizer quantizer;
  std::span<float> out;

  template <std::size_t L>
  void decode(std::size_t c, std::size_t count, Scratch& s) const {
    std::array<const std::uint16_t*, L> symbols;
    std::array<const std::uint8_t*, L> unpred;
    std::array<std::size_t, L> n_unpred;
    const std::size_t expected_planes = kPlanes * plane_bytes(count);
    for (std::size_t l = 0; l < L; ++l) {
      ByteReader r{chunks[c + l]};
      n_unpred[l] = r.u32();
      require_format(n_unpred[l] <= count, "fz: unpredictable count exceeds chunk");
      require_format(n_unpred[l] <= r.remaining() / 4, "fz: unpredictable table truncated");
      unpred[l] = r.view(4 * n_unpred[l]).data();
      zero_run_fill(r, zero_run_header(r, &expected_planes), s.planes.data());
      require_format(r.remaining() == 0, "fz: trailing bytes in chunk");
      std::uint16_t* sym = s.symbols.data() + l * chunk_values;
      unshuffle_planes(s.planes.data(), count, sym);
      symbols[l] = sym;
    }
    std::array<float, L> prev{};
    std::array<std::size_t, L> next{};
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint16_t symbol = symbols[l][i];
        if (symbol == 0) {
          require_format(next[l] < n_unpred[l], "fz: unpredictable table underrun");
          prev[l] = std::bit_cast<float>(get_u32(unpred[l] + 4 * next[l]++));
        } else {
          prev[l] = quantizer.reconstruct(unmap_symbol(symbol, radius), prev[l]);
        }
        out[(c + l) * chunk_values + i] = prev[l];
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      require_format(next[l] == n_unpred[l], "fz: unpredictable table overrun");
    }
  }
};

/// Runs \p code over chunks [lo, hi): groups of kLanes full chunks, then the
/// remainder (and the ragged last chunk of the field) one at a time.
/// \p code is called as code(lanes, first_chunk, count).
template <typename Fn>
void for_chunk_groups(std::size_t lo, std::size_t hi, std::size_t chunk_values, std::size_t n,
                      Fn&& code) {
  std::size_t c = lo;
  for (; c + kLanes <= hi && (c + kLanes) * chunk_values <= n; c += kLanes) {
    code(std::integral_constant<std::size_t, kLanes>{}, c, chunk_values);
  }
  for (; c < hi; ++c) {
    code(std::integral_constant<std::size_t, 1>{}, c, std::min(chunk_values, n - c * chunk_values));
  }
}

}  // namespace

std::vector<std::uint8_t> bitshuffle(std::span<const std::uint16_t> codes) {
  std::vector<std::uint8_t> out(kPlanes * plane_bytes(codes.size()));
  shuffle_planes(codes.data(), codes.size(), out.data());
  return out;
}

std::vector<std::uint16_t> bitunshuffle(std::span<const std::uint8_t> planes,
                                        std::size_t count) {
  require_format(planes.size() == kPlanes * plane_bytes(count),
                 "fz: bitshuffle plane size mismatch");
  std::vector<std::uint16_t> out(count);
  unshuffle_planes(planes.data(), count, out.data());
  return out;
}

std::vector<std::uint8_t> zero_run_encode(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> out(zero_run_bound(bytes.size()));
  out.resize(zero_run_write(bytes.data(), bytes.size(), out.data()));
  return out;
}

std::vector<std::uint8_t> zero_run_decode(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  const ZeroRunHeader h = zero_run_header(r, nullptr);
  std::vector<std::uint8_t> out(h.len);
  zero_run_fill(r, h, out.data());
  require_format(r.remaining() == 0, "fz: trailing bytes after zero-run stream");
  return out;
}

void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats, ThreadPool* pool) {
  TRACE_SPAN("fz.compress");
  require(data.size() == dims.count(), "fz: data size does not match dims");
  require(!data.empty(), "fz: empty input");
  require(params.abs_error_bound > 0.0 && std::isfinite(params.abs_error_bound),
          "fz: abs_error_bound must be positive and finite");
  require(params.chunk_values >= 1 && params.chunk_values <= kMaxChunkValues,
          "fz: chunk_values out of range");
  require(params.radius >= 2 && params.radius <= (1u << 15), "fz: radius out of range");

  const std::size_t n = data.size();
  const std::size_t cv = params.chunk_values;
  const std::size_t n_chunks = ceil_div(n, cv);
  Encoder enc{data,
              cv,
              params.radius,
              sz::Quantizer(params.abs_error_bound, params.radius),
              std::vector<const std::uint8_t*>(n_chunks),
              std::vector<std::size_t>(n_chunks),
              std::vector<std::size_t>(n_chunks)};
  // Each task codes its chunks into a private staging buffer (indexed by
  // its first chunk), sized once for the worst case; only the bytes it
  // writes are ever touched.
  std::vector<std::unique_ptr<std::uint8_t[]>> staging(n_chunks);
  parallel_for(pool, n_chunks,
               [&](std::size_t lo, std::size_t hi) {
                 Scratch scratch(std::min(hi - lo, kLanes), cv, /*encode=*/true);
                 staging[lo] =
                     std::make_unique_for_overwrite<std::uint8_t[]>((hi - lo) * chunk_bound(cv));
                 std::uint8_t* dst = staging[lo].get();
                 for_chunk_groups(lo, hi, cv, n, [&](auto lanes, std::size_t c, std::size_t count) {
                   dst = enc.template code<decltype(lanes)::value>(c, count, scratch, dst);
                 });
               },
               /*min_grain=*/1);

  // The chunk table places every payload at its offset after the header,
  // then the header is written in front of it.
  write_chunk_table(out, kHeaderBytes, enc.payload, enc.payload_bytes, pool, kPlaceGrain);
  std::uint8_t* p = out.data();
  put_u32(p, kMagic);
  put_u32(p + 4, 0);  // reserved flags
  put_u64(p + 8, dims.nx);
  put_u64(p + 16, dims.ny);
  put_u64(p + 24, dims.nz);
  put_u64(p + 32, std::bit_cast<std::uint64_t>(params.abs_error_bound));
  put_u32(p + 40, params.radius);
  put_u32(p + 44, static_cast<std::uint32_t>(cv));
  put_u32(p + 48, static_cast<std::uint32_t>(n_chunks));

  if (stats != nullptr) {
    stats->n_values = n;
    stats->n_unpredictable = 0;
    for (const std::size_t c : enc.unpredictable) stats->n_unpredictable += c;
    stats->compressed_bytes = out.size();
    stats->bit_rate = 8.0 * static_cast<double>(out.size()) / static_cast<double>(n);
  }
}

std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats, ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_into(data, dims, params, out, stats, pool);
  return out;
}

void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims, ThreadPool* pool) {
  TRACE_SPAN("fz.decompress");
  ByteReader r{bytes};
  require_format(r.u32() == kMagic, "fz: bad magic");
  require_format(r.u32() == 0, "fz: unsupported flags");
  Dims dims;
  dims.nx = static_cast<std::size_t>(r.u64());
  dims.ny = static_cast<std::size_t>(r.u64());
  dims.nz = static_cast<std::size_t>(r.u64());
  const std::size_t n = checked_stream_count(dims, "fz");
  const double bound = r.f64();
  require_format(std::isfinite(bound) && bound > 0.0, "fz: bad error bound");
  const std::uint32_t radius = r.u32();
  require_format(radius >= 2 && radius <= (1u << 15), "fz: bad radius");
  const std::uint32_t chunk_values = r.u32();
  require_format(chunk_values >= 1 && chunk_values <= kMaxChunkValues,
                 "fz: bad chunk size");
  const std::uint32_t n_chunks = r.u32();
  require_format(n_chunks == ceil_div(n, chunk_values), "fz: chunk count mismatch");
  // Every value costs at least ~1/64 byte in the shuffled bitmap, so a
  // genuine stream bounds n by its own size — the overalloc guard.
  require_format(n / 64 <= bytes.size(), "fz: declared value count exceeds stream bound");
  const ChunkTable chunks(bytes, r.pos, n_chunks);

  out.resize(n);
  const Decoder dec{chunks, chunk_values, radius, sz::Quantizer(bound, radius), out};
  parallel_for(pool, n_chunks,
               [&](std::size_t lo, std::size_t hi) {
                 Scratch scratch(std::min(hi - lo, kLanes), chunk_values, /*encode=*/false);
                 for_chunk_groups(lo, hi, chunk_values, n,
                                  [&](auto lanes, std::size_t c, std::size_t count) {
                                    dec.template decode<decltype(lanes)::value>(c, count, scratch);
                                  });
               },
               /*min_grain=*/1);
  if (out_dims != nullptr) *out_dims = dims;
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims,
                              ThreadPool* pool) {
  std::vector<float> out;
  decompress_into(bytes, out, out_dims, pool);
  return out;
}

}  // namespace cosmo::fz
