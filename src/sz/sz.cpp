#include "sz/sz.hpp"

#include <cstring>
#include <memory>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/telemetry.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::sz {

namespace {

constexpr std::uint32_t kMagic = 0x535A4331;  // "SZC1"

/// Little-endian serializer appending to a caller-owned buffer.
struct ByteWriter {
  std::vector<std::uint8_t>& bytes;

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void raw(const std::uint8_t* p, std::size_t n) { bytes.insert(bytes.end(), p, p + n); }
  /// Overwrites the u64 at byte \p at (a length written before it was known).
  void u64_at(std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  /// Appends \p n floats' bit patterns, 4 little-endian bytes each.
  void f32s(const float* v, std::size_t n) {
    const std::size_t at = bytes.size();
    bytes.resize(at + 4 * n);
    std::uint8_t* dst = bytes.data() + at;
    for (std::size_t k = 0; k < n; ++k, dst += 4) {
      std::uint32_t bits;
      std::memcpy(&bits, &v[k], 4);
      for (int i = 0; i < 4; ++i) dst[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
};

/// Little-endian byte buffer deserializer with bounds checks.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // Overflow-safe: pos <= size() is an invariant, so compare against the
  // remaining byte count instead of forming pos + n (which wraps when a
  // corrupted header yields n near SIZE_MAX).
  void need(std::size_t n) const {
    require_format(n <= bytes.size() - pos, "sz: truncated stream");
  }
  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
  std::uint8_t u8() {
    need(1);
    return bytes[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    const auto out = bytes.subspan(pos, n);
    pos += n;
    return out;
  }
};

/// Enumerates blocks in deterministic (z, y, x) order.
template <typename Fn>
void for_each_block(const Dims& dims, std::size_t edge, Fn&& fn) {
  for (std::size_t z0 = 0; z0 < dims.nz; z0 += edge) {
    for (std::size_t y0 = 0; y0 < dims.ny; y0 += edge) {
      for (std::size_t x0 = 0; x0 < dims.nx; x0 += edge) {
        BlockRange blk;
        blk.x0 = x0;
        blk.x1 = std::min(x0 + edge, dims.nx);
        blk.y0 = y0;
        blk.y1 = std::min(y0 + edge, dims.ny);
        blk.z0 = z0;
        blk.z1 = std::min(z0 + edge, dims.nz);
        fn(blk);
      }
    }
  }
}

/// Materialized block list (same order as for_each_block) with the prefix
/// offsets of each block's quantization codes — the geometry both the
/// block-parallel compress and decompress passes partition on.
struct BlockLayout {
  std::vector<BlockRange> blocks;
  std::vector<std::size_t> code_off;  // size blocks.size() + 1

  BlockLayout(const Dims& dims, std::size_t edge) {
    for_each_block(dims, edge, [this](const BlockRange& blk) { blocks.push_back(blk); });
    code_off.resize(blocks.size() + 1, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      code_off[b + 1] = code_off[b] + blocks[b].count();
    }
  }
};

}  // namespace

std::size_t default_block_edge(int rank) {
  switch (rank) {
    case 1: return 128;
    case 2: return 16;
    default: return 8;
  }
}

std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats, ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_into(data, dims, params, out, stats, pool);
  return out;
}

void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats, ThreadPool* pool) {
  require(data.size() == dims.count(), "sz::compress: data/dims size mismatch");
  require(!data.empty(), "sz::compress: empty input");
  const std::size_t edge =
      params.block_edge ? params.block_edge : default_block_edge(dims.rank());
  require(edge >= 2, "sz::compress: block edge must be >= 2");

  const Quantizer quant(params.abs_error_bound, params.radius);
  const BlockLayout layout(dims, edge);
  const std::size_t n_blocks = layout.blocks.size();

  // Block-parallel prediction + quantization. Every output is slot-indexed
  // by block (codes at the block's prefix offset, flags/coefs/unpredictable
  // values in per-block slots concatenated in block order below), and
  // prediction never reads outside the block, so the result is independent
  // of how blocks are partitioned across threads. The codes are written
  // before they are read, so they are not zero-filled: their pages are
  // first touched by the pool.
  const auto codes = std::make_unique_for_overwrite<std::uint32_t[]>(data.size());
  std::vector<std::uint8_t> block_flags(n_blocks, 0);
  std::vector<RegressionCoef> block_coefs(n_blocks);
  std::vector<std::vector<float>> block_unpred(n_blocks);
  // Lorenzo reads only the block's own reconstruction, so each task keeps
  // one block-sized tile instead of a field-sized buffer. The tile has the
  // field's rank with every extent at the block edge, and block (dx, dy,
  // dz) sits at its origin, so the stencils read the same values in the
  // same order as they would in the field.
  const int rank = dims.rank();
  const Dims tile_dims = Dims::d3(edge, rank >= 2 ? edge : 1, rank >= 3 ? edge : 1);

  {
    TRACE_SPAN("sz.lorenzo_quantize");
    parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> tile(tile_dims.count());
    for (std::size_t b = lo; b < hi; ++b) {
      const BlockRange& blk = layout.blocks[b];
      bool use_reg = false;
      RegressionCoef coef;
      if (params.regression && blk.count() >= 8) {
        coef = fit_regression(data, dims, blk);
        const double reg_err = regression_error_estimate(data, dims, blk, coef);
        const double lor_err = lorenzo_error_estimate(data, dims, blk);
        use_reg = reg_err < lor_err;
      }
      block_flags[b] = use_reg ? 1 : 0;
      if (use_reg) block_coefs[b] = coef;
      std::size_t ci = layout.code_off[b];
      // One quantize step: same arithmetic as before, shared by all the
      // prediction variants below. \p idx indexes the field, \p t the tile.
      const auto quant_at = [&](float pred, std::size_t idx, std::size_t t) {
        const Quantizer::Result q = quant.quantize(data[idx], pred);
        codes[ci++] = q.code;
        if (q.code == 0) {
          block_unpred[b].push_back(data[idx]);
          tile[t] = data[idx];
        } else {
          tile[t] = q.reconstructed;
        }
      };
      // The use_reg / Lorenzo / boundary decisions are hoisted out of the
      // per-point loop: regression rows are branch-free (the prediction
      // reads no reconstructed neighbors), and Lorenzo interior rows run
      // the direct seven-load stencil — only boundary rows and the x0
      // column pay the general masked lorenzo_predict. Expressions and
      // visit order are unchanged, so codes and streams are byte-identical.
      const BlockRange local{0, blk.x1 - blk.x0, 0, blk.y1 - blk.y0, 0, blk.z1 - blk.z0};
      const std::size_t tnx = tile_dims.nx;
      const std::size_t tnxy = tile_dims.nx * tile_dims.ny;
      for (std::size_t dz = 0; dz < local.z1; ++dz) {
        for (std::size_t dy = 0; dy < local.y1; ++dy) {
          const std::size_t row = dims.index(blk.x0, blk.y0 + dy, blk.z0 + dz);
          const std::size_t trow = tile_dims.index(0, dy, dz);
          if (use_reg) {
            for (std::size_t k = 0; k < local.x1; ++k) {
              quant_at(coef.predict(k, dy, dz), row + k, trow + k);
            }
          } else if ((rank == 3 && dy > 0 && dz > 0) || (rank == 2 && dy > 0)) {
            quant_at(lorenzo_predict(tile, tile_dims, local, 0, dy, dz), row, trow);
            if (rank == 3) {
              for (std::size_t k = 1; k < local.x1; ++k) {
                quant_at(lorenzo_predict3_interior(tile.data(), trow + k, tnx, tnxy), row + k,
                         trow + k);
              }
            } else {
              for (std::size_t k = 1; k < local.x1; ++k) {
                quant_at(lorenzo_predict2_interior(tile.data(), trow + k, tnx), row + k,
                         trow + k);
              }
            }
          } else {
            for (std::size_t k = 0; k < local.x1; ++k) {
              quant_at(lorenzo_predict(tile, tile_dims, local, k, dy, dz), row + k, trow + k);
            }
          }
        }
      }
    }
    }, /*min_grain=*/1);
  }

  std::size_t n_regression = 0;
  std::vector<RegressionCoef> coefs;
  std::vector<float> unpred;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (block_flags[b]) {
      ++n_regression;
      coefs.push_back(block_coefs[b]);
    }
    unpred.insert(unpred.end(), block_unpred[b].begin(), block_unpred[b].end());
  }

  // The container is written straight into `out` after its flag byte,
  // the Huffman container included (its length is patched in once known);
  // the lossless stage then packs that range in place of it when smaller.
  out.clear();
  out.reserve(1 + 80 /* header */ + block_flags.size() + 16 * coefs.size() +
              4 * unpred.size());
  out.push_back(0);
  ByteWriter w{out};
  w.u32(kMagic);
  w.u64(dims.nx);
  w.u64(dims.ny);
  w.u64(dims.nz);
  w.f64(params.abs_error_bound);
  w.u32(params.radius);
  w.u64(edge);
  w.u64(n_blocks);
  w.u64(coefs.size());
  const std::size_t huff_len_at = out.size();
  w.u64(0);
  w.u64(unpred.size());
  w.raw(block_flags.data(), block_flags.size());
  for (const auto& c : coefs) {
    w.f32(c.a);
    w.f32(c.b);
    w.f32(c.c);
    w.f32(c.d);
  }
  {
    TRACE_SPAN("sz.huffman_encode");
    const std::size_t huff_at = out.size();
    huffman_encode_into(std::span<const std::uint32_t>(codes.get(), data.size()), out, pool);
    w.u64_at(huff_len_at, out.size() - huff_at);
  }
  w.f32s(unpred.data(), unpred.size());

  if (params.lossless) {
    TRACE_SPAN("sz.lzss_encode");
    // The packed stream is built behind its own flag byte and replaces the
    // plain one whole, so its bytes are written once.
    std::vector<std::uint8_t> packed = {1};
    if (lzss_encode_into(std::span(out).subspan(1), packed, out.size() - 1, pool)) {
      out.swap(packed);
    }
  }

  if (stats) {
    stats->total_points = data.size();
    stats->unpredictable_points = unpred.size();
    stats->total_blocks = n_blocks;
    stats->regression_blocks = n_regression;
    stats->compressed_bytes = out.size();
    stats->bit_rate = static_cast<double>(out.size()) * 8.0 / static_cast<double>(data.size());
  }
}

std::vector<float> decompress(std::span<const std::uint8_t> bytes, Dims* out_dims,
                              ThreadPool* pool) {
  std::vector<float> out;
  decompress_into(bytes, out, out_dims, pool);
  return out;
}

void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& recon,
                     Dims* out_dims, ThreadPool* pool) {
  require_format(!bytes.empty(), "sz: empty stream");
  const bool packed = bytes[0] == 1;
  std::vector<std::uint8_t> payload_storage;
  std::span<const std::uint8_t> payload;
  if (packed) {
    TRACE_SPAN("sz.lzss_decode");
    payload_storage = lzss_decode(bytes.subspan(1), pool);
    payload = payload_storage;
  } else {
    payload = bytes.subspan(1);
  }

  ByteReader r{payload};
  require_format(r.u32() == kMagic, "sz: bad magic");
  Dims dims;
  dims.nx = r.u64();
  dims.ny = r.u64();
  dims.nz = r.u64();
  const double eb = r.f64();
  const std::uint32_t radius = r.u32();
  const std::size_t edge = r.u64();
  const std::size_t n_blocks = r.u64();
  const std::size_t n_coefs = r.u64();
  const std::size_t huff_len = r.u64();
  const std::size_t n_unpred = r.u64();

  // Bound every count against the payload actually present before any
  // allocation sizes on it: a corrupted header must fail with FormatError,
  // not a multi-GB allocation or an infinite block walk (edge == 0 would
  // never advance for_each_block).
  const std::size_t count = checked_stream_count(dims, "sz");
  require_format(edge >= 2, "sz: block edge out of range");
  require_format(n_blocks <= r.remaining(), "sz: block count exceeds payload");
  require_format(n_coefs <= (r.remaining() - n_blocks) / 16,
                 "sz: regression coef count exceeds payload");
  require_format(huff_len <= r.remaining(), "sz: huffman section exceeds payload");
  require_format(n_unpred <= r.remaining() / 4, "sz: unpredictable count exceeds payload");

  const std::span<const std::uint8_t> block_flags = r.raw(n_blocks);
  std::vector<RegressionCoef> coefs(n_coefs);
  for (auto& c : coefs) {
    c.a = r.f32();
    c.b = r.f32();
    c.c = r.f32();
    c.d = r.f32();
  }
  const std::span<const std::uint8_t> huff = r.raw(huff_len);
  std::vector<float> unpred(n_unpred);
  for (auto& v : unpred) v = r.f32();

  // Every code costs at least one Huffman payload bit, which bounds count
  // before the code buffer is sized on it. The decode writes every code
  // (or throws), so the buffer is not zero-filled.
  require_format(count <= 8 * huff_len, "sz: point count exceeds huffman section");
  const auto codes = std::make_unique_for_overwrite<std::uint32_t[]>(count);
  {
    TRACE_SPAN("sz.huffman_decode");
    huffman_decode_into(huff, std::span<std::uint32_t>(codes.get(), count), pool);
  }

  const BlockLayout layout(dims, edge);
  require_format(layout.blocks.size() == n_blocks, "sz: block count mismatch");
  require_format(block_flags.size() == n_blocks, "sz: block metadata underrun");

  // Recover each block's unpredictable-value and regression-coef offsets by
  // prefix sums (a block's unpredictable count is the number of zero codes
  // in its code slice), then reconstruct block-parallel.
  std::vector<std::size_t> unpred_off(n_blocks + 1, 0);
  std::vector<std::size_t> coef_off(n_blocks + 1, 0);
  parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::size_t zeros = 0;
      for (std::size_t i = layout.code_off[b]; i < layout.code_off[b + 1]; ++i) {
        if (codes[i] == 0) ++zeros;
      }
      unpred_off[b + 1] = zeros;  // raw counts; prefix-summed below
    }
  }, /*min_grain=*/1);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    unpred_off[b + 1] += unpred_off[b];
    coef_off[b + 1] = coef_off[b] + (block_flags[b] ? 1 : 0);
  }
  require_format(unpred_off[n_blocks] == unpred.size(), "sz: unpredictable count mismatch");
  require_format(coef_off[n_blocks] == coefs.size(), "sz: regression coef count mismatch");

  // Every point is written before it is read (Lorenzo reads only points of
  // its own block that precede it), so recon keeps its old values rather
  // than being zero-filled: a caller that reuses it pays no fill at all.
  const Quantizer quant(eb, radius);
  recon.resize(count);
  TRACE_SPAN("sz.reconstruct");
  parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const BlockRange& blk = layout.blocks[b];
      const bool use_reg = block_flags[b] != 0;
      const RegressionCoef coef = use_reg ? coefs[coef_off[b]] : RegressionCoef{};
      std::size_t code_idx = layout.code_off[b];
      std::size_t unpred_idx = unpred_off[b];
      for (std::size_t z = blk.z0; z < blk.z1; ++z) {
        for (std::size_t y = blk.y0; y < blk.y1; ++y) {
          for (std::size_t x = blk.x0; x < blk.x1; ++x) {
            const std::size_t idx = dims.index(x, y, z);
            const std::uint32_t code = codes[code_idx++];
            if (code == 0) {
              recon[idx] = unpred[unpred_idx++];
            } else {
              const float pred = use_reg
                                     ? coef.predict(x - blk.x0, y - blk.y0, z - blk.z0)
                                     : lorenzo_predict(recon, dims, blk, x, y, z);
              recon[idx] = quant.reconstruct(code, pred);
            }
          }
        }
      }
    }
  }, /*min_grain=*/1);

  if (out_dims) *out_dims = dims;
}

}  // namespace cosmo::sz
