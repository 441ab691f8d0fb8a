#include "sz/pwrel.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/telemetry.hpp"

namespace cosmo::sz {

namespace {

constexpr std::uint32_t kMagic = 0x535A5052;  // "SZPR"
constexpr double kDefaultZeroRatio = 1e-10;

enum Class : std::uint32_t { kZero = 0, kPos = 1, kNeg = 2 };

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Overwrites the u64 at byte \p at (a length written before it was known).
void put_u64_at(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t read_u32(std::span<const std::uint8_t> b, std::size_t& pos) {
  require_format(pos + 4 <= b.size(), "pwrel: truncated stream");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[pos++]) << (8 * i);
  return v;
}

std::uint64_t read_u64(std::span<const std::uint8_t> b, std::size_t& pos) {
  require_format(pos + 8 <= b.size(), "pwrel: truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[pos++]) << (8 * i);
  return v;
}

}  // namespace

bool is_pwrel_stream(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= 4 && bytes[0] == 0x52 && bytes[1] == 0x50 && bytes[2] == 0x5A &&
         bytes[3] == 0x53;
}

std::vector<std::uint8_t> compress_pwrel(std::span<const float> data, const Dims& dims,
                                         const PwRelParams& params, Stats* stats,
                                         ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_pwrel_into(data, dims, params, out, stats, pool);
  return out;
}

void compress_pwrel_into(std::span<const float> data, const Dims& dims,
                         const PwRelParams& params, std::vector<std::uint8_t>& out,
                         Stats* stats, ThreadPool* pool) {
  TRACE_SPAN("sz.pwrel.compress");
  require(data.size() == dims.count(), "compress_pwrel: data/dims size mismatch");
  require(!data.empty(), "compress_pwrel: empty input");
  require(params.pw_rel_bound > 0.0 && params.pw_rel_bound < 1.0,
          "compress_pwrel: pw_rel bound must be in (0, 1)");

  // Parallel max reduction: fabs/max are exact, so the result is identical
  // for any chunking.
  constexpr std::size_t kChunk = 1u << 20;
  const std::size_t n_chunks = (data.size() + kChunk - 1) / kChunk;
  std::vector<double> chunk_max(n_chunks, 0.0);
  parallel_for(pool, n_chunks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      double m = 0.0;
      const std::size_t end = std::min((c + 1) * kChunk, data.size());
      for (std::size_t i = c * kChunk; i < end; ++i) {
        m = std::max(m, std::fabs(static_cast<double>(data[i])));
      }
      chunk_max[c] = m;
    }
  }, /*min_grain=*/1);
  double max_abs = 0.0;
  for (const double m : chunk_max) max_abs = std::max(max_abs, m);
  const double ratio =
      params.zero_threshold_ratio > 0.0 ? params.zero_threshold_ratio : kDefaultZeroRatio;
  const double thresh = max_abs > 0.0 ? max_abs * ratio : 0.0;
  const double log_floor = thresh > 0.0 ? std::log(thresh) : 0.0;

  // Class per point + log magnitudes (zeros carry the floor so the log
  // field stays smooth for the predictor). Element-wise with slot-indexed
  // writes, so any partition gives the same result. The loop writes every
  // element, so neither buffer is zero-filled first.
  const std::size_t n = data.size();
  const auto classes = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  const auto logs = std::make_unique_for_overwrite<float[]>(n);
  parallel_for(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double v = data[i];
      if (std::fabs(v) <= thresh) {
        classes[i] = kZero;
        logs[i] = static_cast<float>(log_floor);
      } else {
        classes[i] = v > 0.0 ? kPos : kNeg;
        logs[i] = static_cast<float>(std::log(std::fabs(v)));
      }
    }
  }, /*min_grain=*/kChunk / 16);

  // A symmetric bound eb on ln|x| gives |x'/x| in [e^-eb, e^eb]; choosing
  // eb = ln(1 + p) makes the upper ratio exactly 1 + p and the lower
  // 1/(1+p) > 1 - p, so the point-wise relative bound holds on both sides.
  Params abs_params;
  abs_params.abs_error_bound = std::log(1.0 + params.pw_rel_bound);
  abs_params.block_edge = params.block_edge;
  abs_params.regression = params.regression;
  abs_params.lossless = params.lossless;

  Stats inner_stats;
  const std::vector<std::uint8_t> log_stream =
      compress(std::span<const float>(logs.get(), n), dims, abs_params, &inner_stats, pool);
  const std::vector<std::uint8_t> class_stream =
      huffman_encode(std::span<const std::uint32_t>(classes.get(), n), pool);

  // The class section goes in last: packed straight into `out` when that
  // is smaller, else copied plain. Its flag and length are patched in once
  // known.
  out.clear();
  append_u32(out, kMagic);
  append_u64(out, n);
  const std::size_t class_lz_at = out.size();
  out.push_back(0);
  {
    std::uint64_t bits;
    static_assert(sizeof(double) == 8);
    std::memcpy(&bits, &thresh, 8);
    append_u64(out, bits);
  }
  append_u64(out, log_stream.size());
  const std::size_t cls_len_at = out.size();
  append_u64(out, 0);
  out.insert(out.end(), log_stream.begin(), log_stream.end());
  const std::size_t cls_at = out.size();
  bool class_lz = false;
  {
    TRACE_SPAN("sz.lzss_encode");
    class_lz = lzss_encode_into(class_stream, out, class_stream.size(), pool);
  }
  if (!class_lz) out.insert(out.end(), class_stream.begin(), class_stream.end());
  out[class_lz_at] = class_lz ? 1 : 0;
  put_u64_at(out, cls_len_at, out.size() - cls_at);

  if (stats) {
    *stats = inner_stats;
    stats->compressed_bytes = out.size();
    stats->bit_rate = static_cast<double>(out.size()) * 8.0 / static_cast<double>(n);
  }
}

std::vector<float> decompress_pwrel(std::span<const std::uint8_t> bytes, Dims* out_dims,
                                    ThreadPool* pool) {
  std::vector<float> out;
  decompress_pwrel_into(bytes, out, out_dims, pool);
  return out;
}

void decompress_pwrel_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                           Dims* out_dims, ThreadPool* pool) {
  TRACE_SPAN("sz.pwrel.decompress");
  std::size_t pos = 0;
  require_format(read_u32(bytes, pos) == kMagic, "pwrel: bad magic");
  const std::uint64_t count = read_u64(bytes, pos);
  require_format(pos < bytes.size(), "pwrel: truncated stream");
  const bool class_lz = bytes[pos++] == 1;
  const std::uint64_t thresh_bits = read_u64(bytes, pos);
  double thresh;
  std::memcpy(&thresh, &thresh_bits, 8);
  (void)thresh;
  const std::size_t log_len = read_u64(bytes, pos);
  const std::size_t cls_len = read_u64(bytes, pos);
  // Compare each length against the bytes that remain instead of summing:
  // pos + log_len + cls_len wraps when a corrupted header carries lengths
  // near SIZE_MAX. `count` itself needs no bound here: the class buffer is
  // only sized on it after the decoded log field was checked to match it.
  require_format(log_len <= bytes.size() - pos, "pwrel: log section exceeds payload");
  require_format(cls_len <= bytes.size() - pos - log_len, "pwrel: class section exceeds payload");

  // The log field decodes straight into `out`, which the class pass then
  // maps to values in place.
  Dims dims;
  decompress_into(bytes.subspan(pos, log_len), out, &dims, pool);
  pos += log_len;
  std::span<const std::uint8_t> cls_bytes = bytes.subspan(pos, cls_len);
  std::vector<std::uint8_t> cls_unpacked;
  if (class_lz) {
    TRACE_SPAN("sz.lzss_decode");
    cls_unpacked = lzss_decode(cls_bytes, pool);
    cls_bytes = cls_unpacked;
  }
  require_format(out.size() == count, "pwrel: section size mismatch");
  // Sized by the decoded log field, and written whole by the decode.
  const auto classes = std::make_unique_for_overwrite<std::uint32_t[]>(count);
  huffman_decode_into(cls_bytes, std::span<std::uint32_t>(classes.get(), count), pool);

  std::atomic<bool> bad_class{false};
  parallel_for(pool, count, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      switch (classes[i]) {
        case kZero: out[i] = 0.0f; break;
        case kPos: out[i] = std::exp(out[i]); break;
        case kNeg: out[i] = -std::exp(out[i]); break;
        default: bad_class.store(true, std::memory_order_relaxed); out[i] = 0.0f; break;
      }
    }
  }, /*min_grain=*/1u << 16);
  if (bad_class.load()) throw FormatError("pwrel: bad class symbol");
  if (out_dims) *out_dims = dims;
}

}  // namespace cosmo::sz
