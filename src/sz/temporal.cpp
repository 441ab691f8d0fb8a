#include "sz/temporal.hpp"

#include <cstring>

#include "codec/huffman.hpp"
#include "common/str.hpp"
#include "codec/lzss.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::sz {

namespace {

constexpr std::uint32_t kMagic = 0x535A544D;  // "SZTM"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}
void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(out, bits);
}

struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // Overflow-safe: compare against what remains instead of forming pos + n.
  void need(std::size_t n) const {
    require_format(n <= bytes.size() - pos, "sz-temporal: truncated stream");
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
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto out = bytes.subspan(pos, n);
    pos += n;
    return out;
  }
};

}  // namespace

std::vector<std::uint8_t> compress_temporal(const std::vector<Field>& frames,
                                            const TemporalParams& params,
                                            TemporalStats* stats) {
  require(!frames.empty(), "compress_temporal: no frames");
  const Dims dims = frames.front().dims;
  for (const auto& f : frames) {
    require(f.dims == dims, "compress_temporal: frame shape mismatch");
  }

  Params spatial;
  spatial.abs_error_bound = params.abs_error_bound;
  spatial.block_edge = params.block_edge;
  spatial.regression = params.regression;
  spatial.lossless = params.lossless;

  const Quantizer quant(params.abs_error_bound);
  std::vector<float> prev_recon;

  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u64(out, frames.size());
  put_u64(out, dims.nx);
  put_u64(out, dims.ny);
  put_u64(out, dims.nz);
  put_f64(out, params.abs_error_bound);

  std::size_t key_frames = 0;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const bool key = t == 0 || (params.key_interval > 0 && t % params.key_interval == 0);
    out.push_back(key ? 1 : 0);
    const auto& data = frames[t].data;
    if (key) {
      ++key_frames;
      const auto frame_bytes = compress(data, dims, spatial);
      put_u64(out, frame_bytes.size());
      out.insert(out.end(), frame_bytes.begin(), frame_bytes.end());
      prev_recon = decompress(frame_bytes);
    } else {
      // Temporal prediction: each point predicted by its own previous
      // reconstructed value.
      std::vector<std::uint32_t> codes(data.size());
      std::vector<float> unpred;
      std::vector<float> recon(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        const Quantizer::Result q = quant.quantize(data[i], prev_recon[i]);
        codes[i] = q.code;
        if (q.code == 0) {
          unpred.push_back(data[i]);
          recon[i] = data[i];
        } else {
          recon[i] = q.reconstructed;
        }
      }
      // The codes go out as a HUFC container, LZSC-packed when smaller.
      std::vector<std::uint8_t> huff = huffman_encode(codes);
      std::vector<std::uint8_t> packed;
      const bool used_lzss = params.lossless && lzss_encode_into(huff, packed, huff.size());
      if (used_lzss) huff = std::move(packed);
      out.push_back(used_lzss ? 1 : 0);
      put_u64(out, huff.size());
      put_u64(out, unpred.size());
      out.insert(out.end(), huff.begin(), huff.end());
      for (const float v : unpred) put_f32(out, v);
      prev_recon = std::move(recon);
    }
  }

  if (stats) {
    stats->frames = frames.size();
    stats->key_frames = key_frames;
    stats->compressed_bytes = out.size();
    stats->bit_rate = static_cast<double>(out.size()) * 8.0 /
                      (static_cast<double>(dims.count()) * static_cast<double>(frames.size()));
  }
  return out;
}

std::vector<Field> decompress_temporal(std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  require_format(r.u32() == kMagic, "sz-temporal: bad magic");
  const std::uint64_t frame_count = r.u64();
  Dims dims;
  dims.nx = r.u64();
  dims.ny = r.u64();
  dims.nz = r.u64();
  const double eb = r.f64();
  const Quantizer quant(eb);
  const std::size_t count = checked_stream_count(dims, "sz-temporal");
  // Every frame costs at least its flag byte.
  require_format(frame_count <= r.bytes.size() - r.pos, "sz-temporal: frame count exceeds payload");

  std::vector<Field> out;
  out.reserve(frame_count);
  std::vector<float> prev_recon;
  for (std::uint64_t t = 0; t < frame_count; ++t) {
    r.need(1);
    const bool key = r.bytes[r.pos++] == 1;
    if (key) {
      const std::size_t len = r.u64();
      const auto section = r.raw(len);
      std::vector<float> values = decompress(section);
      require_format(values.size() == count, "sz-temporal: key frame size mismatch");
      Field frame(strprintf("frame_t%03llu", static_cast<unsigned long long>(t)), dims,
                  std::move(values));
      prev_recon = frame.data;
      out.push_back(std::move(frame));
    } else {
      require_format(prev_recon.size() == count, "sz-temporal: delta frame before a key frame");
      r.need(1);
      const bool packed = r.bytes[r.pos++] == 1;
      const std::size_t huff_len = r.u64();
      const std::size_t unpred_count = r.u64();
      const auto huff = r.raw(huff_len);
      const std::vector<std::uint32_t> codes =
          packed ? huffman_decode(lzss_decode(huff)) : huffman_decode(huff);
      require_format(codes.size() == count, "sz-temporal: code count mismatch");
      require_format(unpred_count <= (r.bytes.size() - r.pos) / 4,
                     "sz-temporal: unpredictable count exceeds payload");
      std::vector<float> unpred(unpred_count);
      for (auto& v : unpred) v = r.f32();

      Field frame(strprintf("frame_t%03llu", static_cast<unsigned long long>(t)), dims);
      std::size_t u = 0;
      for (std::size_t i = 0; i < codes.size(); ++i) {
        if (codes[i] == 0) {
          require_format(u < unpred.size(), "sz-temporal: unpredictable underrun");
          frame.data[i] = unpred[u++];
        } else {
          frame.data[i] = quant.reconstruct(codes[i], prev_recon[i]);
        }
      }
      prev_recon = frame.data;
      out.push_back(std::move(frame));
    }
  }
  return out;
}

}  // namespace cosmo::sz
