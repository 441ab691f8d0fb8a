#include "zfp/zfp.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>

#include "common/telemetry.hpp"
#include "zfp/block_codec.hpp"

namespace cosmo::zfp {

namespace {

constexpr std::uint32_t kMagic = 0x5A465031;  // "ZFP1"
constexpr unsigned kMinBlockBits = 12;        // flag (1) + exponent (10) + >= 1 payload bit

/// Blocks per encode range: 512 4^3 blocks = 32K values, enough to amortize
/// task overhead while keeping ranges plentiful for load balancing. A
/// fixed-rate range spans 512 * maxbits bits, a whole number of words.
constexpr std::size_t kBlocksPerRange = 512;

/// Largest per-block budget compress() writes for any mode: 16 + 32 * 64.
constexpr unsigned kMaxBlockBits = 16u + 32u * 64u;

/// Places range r's bits at its bit offset in \p payload. Range r owns the
/// payload bytes whose first bit lies in [offset[r], offset[r + 1]): all
/// but possibly the last come from its own writer; a last byte straddling
/// the range end also takes the first bits of the ranges after it. Every
/// payload byte is written by exactly one range, so ranges place in
/// parallel.
void place_range(const std::vector<BitWriter>& parts, const std::vector<std::uint64_t>& offset,
                 std::size_t r, std::uint8_t* payload) {
  const std::uint64_t begin = offset[r], end = offset[r + 1];
  const std::uint64_t first = (begin + 7) / 8, full = end / 8;
  if (full > first) {
    parts[r].copy_bytes(8 * first - begin, static_cast<std::size_t>(full - first),
                        payload + first);
  }
  if (end % 8 == 0 || full < first) return;
  std::uint8_t byte = 0;
  parts[r].copy_bytes(8 * full - begin, 1, &byte);
  std::uint64_t filled = end - 8 * full;
  for (std::size_t q = r + 1; filled < 8 && q < parts.size(); ++q) {
    std::uint8_t next = 0;
    parts[q].copy_bytes(0, 1, &next);
    byte = static_cast<std::uint8_t>(byte | (next << filled));
    filled += parts[q].bit_count();
  }
  payload[full] = byte;
}

}  // namespace

unsigned block_bits_for_rate(double rate, int rank) {
  require(rate > 0.0 && rate <= 32.0, "zfp: rate must be in (0, 32]");
  const double bits = rate * static_cast<double>(block_values(rank));
  return std::max<unsigned>(kMinBlockBits, static_cast<unsigned>(std::lround(bits)));
}

std::vector<std::uint8_t> compress(std::span<const float> data, const Dims& dims,
                                   const Params& params, Stats* stats, ThreadPool* pool) {
  std::vector<std::uint8_t> out;
  compress_into(data, dims, params, out, stats, pool);
  return out;
}

void compress_into(std::span<const float> data, const Dims& dims, const Params& params,
                   std::vector<std::uint8_t>& out, Stats* stats, ThreadPool* pool) {
  require(data.size() == dims.count(), "zfp::compress: data/dims size mismatch");
  require(!data.empty(), "zfp::compress: empty input");
  const int rank = dims.rank();

  unsigned maxbits, maxprec;
  int minexp;
  if (params.mode == Mode::kFixedRate) {
    maxbits = block_bits_for_rate(params.rate, rank);
    maxprec = kIntPrec;
    minexp = INT_MIN;
  } else if (params.mode == Mode::kFixedAccuracy) {
    require(std::isfinite(params.tolerance) && params.tolerance > 0.0,
            "zfp: tolerance must be finite and positive");
    maxbits = 16u + 32u * static_cast<unsigned>(block_values(rank));  // effectively unbounded
    maxprec = kIntPrec;
    minexp = static_cast<int>(std::floor(std::log2(params.tolerance)));
  } else {
    require(params.precision >= 1 && params.precision <= kIntPrec,
            "zfp: precision must be in [1, 32]");
    maxbits = 16u + 32u * static_cast<unsigned>(block_values(rank));
    maxprec = params.precision;
    minexp = INT_MIN;
  }

  const BlockParams block_params{maxbits, maxprec, minexp, params.mode == Mode::kFixedRate};
  const std::size_t n_blocks = block_count(dims);
  const std::size_t n_ranges = (n_blocks + kBlocksPerRange - 1) / kBlocksPerRange;
  TRACE_SPAN("zfp.block_scan.encode");
  // Every range is encoded into its own writer, then placed at its
  // prefix-summed bit offset: the payload is the serial single-writer
  // stream bit for bit, for any thread count (pool == nullptr runs the
  // same ranges inline).
  std::vector<BitWriter> parts(n_ranges);
  dispatch_rank(rank, [&](auto r) {
    parallel_for(pool, n_ranges, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        encode_range<decltype(r)::value>(parts[i], data, dims, i * kBlocksPerRange,
                                         std::min((i + 1) * kBlocksPerRange, n_blocks),
                                         block_params);
      }
    }, /*min_grain=*/1);
  });
  std::vector<std::uint64_t> offset(n_ranges + 1, 0);
  for (std::size_t i = 0; i < n_ranges; ++i) offset[i + 1] = offset[i] + parts[i].bit_count();
  const std::size_t payload_len = static_cast<std::size_t>((offset.back() + 7) / 8);

  out.clear();
  auto u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  u32(kMagic);
  out.push_back(static_cast<std::uint8_t>(params.mode));
  u64(dims.nx);
  u64(dims.ny);
  u64(dims.nz);
  u32(maxbits);
  {
    std::uint64_t bits;
    const double m2 = params.mode == Mode::kFixedRate        ? params.rate
                      : params.mode == Mode::kFixedAccuracy ? params.tolerance
                                                            : params.precision;
    std::memcpy(&bits, &m2, 8);
    u64(bits);
  }
  u64(payload_len);
  const std::size_t header_len = out.size();
  out.resize(header_len + payload_len);
  std::uint8_t* payload = out.data() + header_len;
  parallel_for(pool, n_ranges, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) place_range(parts, offset, i, payload);
  }, /*min_grain=*/1);

  if (stats) {
    stats->total_points = data.size();
    stats->total_blocks = n_blocks;
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

void decompress_into(std::span<const std::uint8_t> bytes, std::vector<float>& out,
                     Dims* out_dims, ThreadPool* pool) {
  std::size_t pos = 0;
  auto u32 = [&bytes, &pos]() {
    require_format(pos + 4 <= bytes.size(), "zfp: truncated header");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
    return v;
  };
  auto u64 = [&bytes, &pos]() {
    require_format(pos + 8 <= bytes.size(), "zfp: truncated header");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
    return v;
  };
  require_format(u32() == kMagic, "zfp: bad magic");
  require_format(pos < bytes.size(), "zfp: truncated header");
  require_format(bytes[pos] <= 2, "zfp: unknown mode byte");
  const Mode mode = static_cast<Mode>(bytes[pos++]);
  Dims dims;
  dims.nx = u64();
  dims.ny = u64();
  dims.nz = u64();
  const unsigned maxbits = u32();
  double mode_param;
  {
    const std::uint64_t bits = u64();
    std::memcpy(&mode_param, &bits, 8);
  }
  const std::size_t payload_len = u64();
  require_format(payload_len <= bytes.size() - pos, "zfp: truncated payload");

  const int rank = dims.rank();
  unsigned maxprec = kIntPrec;
  int minexp = INT_MIN;
  if (mode == Mode::kFixedAccuracy) {
    // Validated before the cast: floor(log2(t)) of a finite t > 0 lies in
    // [-1075, 1023], while 0, Inf or NaN would overflow it.
    require_format(std::isfinite(mode_param) && mode_param > 0.0,
                   "zfp: stored tolerance must be finite and positive");
    minexp = static_cast<int>(std::floor(std::log2(mode_param)));
  } else if (mode == Mode::kFixedPrecision) {
    require_format(mode_param >= 1.0 && mode_param <= kIntPrec &&
                       mode_param == std::floor(mode_param),
                   "zfp: stored precision must be an integer in [1, 32]");
    maxprec = static_cast<unsigned>(mode_param);
  }

  // Bound the output allocation by the payload actually present: every
  // encoded block spends at least one bit (the all-zero flag), so a stream
  // with fewer payload bits than blocks is corrupt. This also keeps the
  // fixed-rate seek below (lo * maxbits) far from overflow, together with
  // the maxbits range check — kMaxBlockBits is the largest value
  // compress() ever writes for any mode.
  const std::size_t count = checked_stream_count(dims, "zfp");
  require_format(maxbits >= 1 && maxbits <= kMaxBlockBits, "zfp: stored maxbits out of range");
  const std::size_t n_blocks = block_count(dims);
  require_format(n_blocks <= payload_len * 8, "zfp: block count exceeds payload");
  const BlockParams block_params{maxbits, maxprec, minexp, mode == Mode::kFixedRate};
  TRACE_SPAN("zfp.block_scan.decode");
  out.resize(count);  // every value is written by the block scatter
  dispatch_rank(rank, [&](auto r) {
    if (mode == Mode::kFixedRate) {
      // Fixed-rate blocks all occupy exactly maxbits bits, so block b starts
      // at bit offset b * maxbits and ranges decode independently (inline
      // when pool is null or the grid is one range). Scatter targets are
      // disjoint per block.
      parallel_for(pool, n_blocks, [&](std::size_t lo, std::size_t hi) {
        BitReader range_br(bytes.data() + pos, payload_len);
        range_br.seek(static_cast<std::uint64_t>(lo) * maxbits);
        decode_range<decltype(r)::value>(range_br, out, dims, lo, hi, block_params);
      }, /*min_grain=*/kBlocksPerRange);
    } else {
      BitReader br(bytes.data() + pos, payload_len);
      decode_range<decltype(r)::value>(br, out, dims, 0, n_blocks, block_params);
    }
  });
  if (out_dims) *out_dims = dims;
}

}  // namespace cosmo::zfp
