#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "analysis/decimation.hpp"
#include "analysis/stats.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/error.hpp"
#include "cosmo/nyx_sequence.hpp"
#include "huffman_reference.hpp"
#include "lzss_reference.hpp"
#include "sz/temporal.hpp"

namespace cosmo {
namespace {

NyxSequenceConfig small_sequence(std::size_t steps = 6) {
  NyxSequenceConfig config;
  config.base.dim = 16;
  config.steps = steps;
  return config;
}

double correlation(std::span<const float> a, std::span<const float> b) {
  return analysis::compare(a, b).pearson_r;
}

TEST(NyxSequence, AdjacentFramesStronglyCorrelated) {
  const auto frames = generate_nyx_delta_sequence(small_sequence(8));
  ASSERT_EQ(frames.size(), 8u);
  // Adjacent correlation ~ cos(0.08) ~ 0.997; far frames decorrelate more.
  const double adjacent = correlation(frames[0].data, frames[1].data);
  const double distant = correlation(frames[0].data, frames[7].data);
  EXPECT_GT(adjacent, 0.98);
  EXPECT_LT(distant, adjacent);
}

TEST(NyxSequence, GrowthIncreasesAmplitude) {
  auto config = small_sequence(6);
  config.growth_per_step = 0.1;
  const auto frames = generate_nyx_delta_sequence(config);
  auto rms = [](const Field& f) {
    double sum = 0.0;
    for (const float v : f.data) sum += static_cast<double>(v) * v;
    return std::sqrt(sum / static_cast<double>(f.data.size()));
  };
  EXPECT_GT(rms(frames.back()), rms(frames.front()) * 1.3);
}

TEST(NyxSequence, DensitySequenceStaysInRange) {
  const auto frames = generate_nyx_density_sequence(small_sequence(4));
  for (const auto& f : frames) {
    const auto [lo, hi] = value_range(f.view());
    EXPECT_GT(lo, 0.0f);
    EXPECT_LE(hi, 1e5f);
  }
}

// ---------- Temporal SZ ----------

TEST(SzTemporal, RoundTripHonorsBoundEveryFrame) {
  const auto frames = generate_nyx_density_sequence(small_sequence(5));
  sz::TemporalParams params;
  params.abs_error_bound = 0.5;
  const auto bytes = sz::compress_temporal(frames, params);
  const auto recon = sz::decompress_temporal(bytes);
  ASSERT_EQ(recon.size(), frames.size());
  for (std::size_t t = 0; t < frames.size(); ++t) {
    double max_err = 0.0;
    for (std::size_t i = 0; i < frames[t].data.size(); ++i) {
      max_err = std::max(max_err, std::fabs(static_cast<double>(frames[t].data[i]) -
                                            recon[t].data[i]));
    }
    EXPECT_LE(max_err, params.abs_error_bound * (1 + 1e-9)) << "frame " << t;
  }
}

TEST(SzTemporal, TemporalPredictionBeatsAllSpatialOnCoherentData) {
  auto config = small_sequence(6);
  config.rotation_per_step = 0.03;  // highly coherent cadence
  const auto frames = generate_nyx_density_sequence(config);

  sz::TemporalParams temporal;
  temporal.abs_error_bound = 0.5;
  sz::TemporalStats temporal_stats;
  sz::compress_temporal(frames, temporal, &temporal_stats);

  sz::TemporalParams all_spatial = temporal;
  all_spatial.key_interval = 1;  // every frame is a key frame
  sz::TemporalStats spatial_stats;
  sz::compress_temporal(frames, all_spatial, &spatial_stats);

  EXPECT_LT(temporal_stats.compressed_bytes, spatial_stats.compressed_bytes);
  EXPECT_EQ(temporal_stats.key_frames, 1u);
  EXPECT_EQ(spatial_stats.key_frames, frames.size());
}

TEST(SzTemporal, KeyIntervalInsertsKeyFrames) {
  const auto frames = generate_nyx_density_sequence(small_sequence(7));
  sz::TemporalParams params;
  params.abs_error_bound = 1.0;
  params.key_interval = 3;
  sz::TemporalStats stats;
  const auto bytes = sz::compress_temporal(frames, params, &stats);
  EXPECT_EQ(stats.key_frames, 3u);  // t = 0, 3, 6
  const auto recon = sz::decompress_temporal(bytes);
  EXPECT_EQ(recon.size(), frames.size());
}

TEST(SzTemporal, SingleFrameSequenceWorks) {
  const auto frames = generate_nyx_density_sequence(small_sequence(1));
  sz::TemporalParams params;
  params.abs_error_bound = 0.1;
  const auto recon = sz::decompress_temporal(sz::compress_temporal(frames, params));
  ASSERT_EQ(recon.size(), 1u);
}

TEST(SzTemporal, MismatchedFrameShapesRejected) {
  std::vector<Field> frames;
  frames.emplace_back("a", Dims::d3(4, 4, 4));
  frames.emplace_back("b", Dims::d3(8, 8, 8));
  sz::TemporalParams params;
  EXPECT_THROW(sz::compress_temporal(frames, params), InvalidArgument);
  EXPECT_THROW(sz::compress_temporal({}, params), InvalidArgument);
}

/// Rewrites every delta frame of an SZTM stream with the sections older
/// encoders wrote: a legacy HUFF buffer of the frame's codes, packed into a
/// standalone LZSS stream on odd frames (both from the test oracles). Key
/// frames are copied as they are.
std::vector<std::uint8_t> with_legacy_delta_frames(const std::vector<std::uint8_t>& bytes) {
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes.at(at + i)) << (8 * i);
    return v;
  };
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + 44);  // SZTM header
  const auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const std::uint64_t frames = u64_at(4);
  std::size_t pos = out.size();
  for (std::uint64_t t = 0; t < frames; ++t) {
    const std::uint8_t key = bytes.at(pos++);
    out.push_back(key);
    if (key == 1) {
      const std::size_t end = pos + 8 + u64_at(pos);
      out.insert(out.end(), bytes.begin() + pos, bytes.begin() + end);
      pos = end;
      continue;
    }
    const bool packed = bytes.at(pos) == 1;
    const std::size_t section_len = u64_at(pos + 1);
    const std::uint64_t n_unpred = u64_at(pos + 9);
    pos += 17;
    const std::span<const std::uint8_t> section(bytes.data() + pos, section_len);
    pos += section_len;
    const std::vector<std::uint32_t> codes =
        packed ? huffman_decode(lzss_decode(section)) : huffman_decode(section);
    std::vector<std::uint8_t> legacy = test::huffman_encode_reference(codes);
    const bool pack = t % 2 == 1;
    if (pack) legacy = test::lzss_encode_reference(legacy);
    out.push_back(pack ? 1 : 0);
    put_u64(legacy.size());
    put_u64(n_unpred);
    out.insert(out.end(), legacy.begin(), legacy.end());
    out.insert(out.end(), bytes.begin() + pos, bytes.begin() + pos + 4 * n_unpred);
    pos += 4 * n_unpred;
  }
  EXPECT_EQ(pos, bytes.size());
  return out;
}

TEST(SzTemporal, LegacyHuffLzssFramesStillDecode) {
  const auto frames = generate_nyx_density_sequence(small_sequence(5));
  sz::TemporalParams params;
  params.abs_error_bound = 0.5;
  const auto bytes = sz::compress_temporal(frames, params);
  const auto legacy = with_legacy_delta_frames(bytes);
  ASSERT_NE(legacy, bytes);

  const auto recon = sz::decompress_temporal(bytes);
  const auto legacy_recon = sz::decompress_temporal(legacy);
  ASSERT_EQ(legacy_recon.size(), recon.size());
  for (std::size_t t = 0; t < recon.size(); ++t) {
    EXPECT_EQ(legacy_recon[t].data, recon[t].data) << "frame " << t;
  }
}

TEST(SzTemporal, CorruptStreamThrows) {
  const auto frames = generate_nyx_density_sequence(small_sequence(3));
  sz::TemporalParams params;
  params.abs_error_bound = 1.0;
  auto bytes = sz::compress_temporal(frames, params);
  bytes.resize(bytes.size() / 3);
  EXPECT_THROW(sz::decompress_temporal(bytes), FormatError);
}

TEST(SzTemporal, HostileHeadersRejected) {
  const auto frames = generate_nyx_density_sequence(small_sequence(3));
  sz::TemporalParams params;
  params.abs_error_bound = 1.0;
  const auto bytes = sz::compress_temporal(frames, params);
  const auto put_u64 = [](std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  // A delta frame with no key frame before it has nothing to predict from.
  auto no_key = bytes;
  ASSERT_EQ(no_key[44], 1);
  no_key[44] = 0;
  EXPECT_THROW(sz::decompress_temporal(no_key), FormatError);
  // A frame count the payload cannot hold.
  auto many_frames = bytes;
  put_u64(many_frames, 4, std::uint64_t{1} << 60);
  EXPECT_THROW(sz::decompress_temporal(many_frames), FormatError);
  // A key-frame length near 2^64 must not wrap the bounds check.
  auto long_section = bytes;
  put_u64(long_section, 45, ~std::uint64_t{0} - 8);
  EXPECT_THROW(sz::decompress_temporal(long_section), FormatError);
}

// ---------- Decimation baseline ----------

TEST(Decimation, KeepEveryOtherSnapshot) {
  const auto frames = generate_nyx_density_sequence(small_sequence(7));
  const auto result = analysis::decimate_and_reconstruct(frames, 2);
  ASSERT_EQ(result.reconstructed.size(), frames.size());
  EXPECT_EQ(result.kept_snapshots, 4u);  // 0, 2, 4, 6
  // Kept frames are exact.
  for (const std::size_t t : {0u, 2u, 4u, 6u}) {
    EXPECT_EQ(result.reconstructed[t].data, frames[t].data) << t;
  }
  // Interpolated frames are not exact but correlated.
  EXPECT_NE(result.reconstructed[1].data, frames[1].data);
  EXPECT_GT(correlation(result.reconstructed[1].data, frames[1].data), 0.9);
}

TEST(Decimation, LastFrameAlwaysKept) {
  const auto frames = generate_nyx_density_sequence(small_sequence(6));
  const auto result = analysis::decimate_and_reconstruct(frames, 4);
  // Kept: 0, 4, then 5 forced.
  EXPECT_EQ(result.kept_snapshots, 3u);
  EXPECT_EQ(result.reconstructed.back().data, frames.back().data);
}

TEST(Decimation, KeepEveryOneIsLossless) {
  const auto frames = generate_nyx_density_sequence(small_sequence(3));
  const auto result = analysis::decimate_and_reconstruct(frames, 1);
  EXPECT_EQ(result.kept_snapshots, 3u);
  EXPECT_DOUBLE_EQ(result.storage_ratio, 1.0);
  for (std::size_t t = 0; t < frames.size(); ++t) {
    EXPECT_EQ(result.reconstructed[t].data, frames[t].data);
  }
}

TEST(Decimation, CoarserDecimationDegradesPsnr) {
  auto config = small_sequence(9);
  config.rotation_per_step = 0.15;  // meaningful evolution between frames
  const auto frames = generate_nyx_density_sequence(config);
  const auto d2 = analysis::decimate_and_reconstruct(frames, 2);
  const auto d4 = analysis::decimate_and_reconstruct(frames, 4);
  const double psnr2 = analysis::sequence_mean_psnr(frames, d2.reconstructed);
  const double psnr4 = analysis::sequence_mean_psnr(frames, d4.reconstructed);
  EXPECT_GT(psnr2, psnr4);
  EXPECT_GT(d4.storage_ratio, d2.storage_ratio);
}

TEST(Decimation, InvalidArgsRejected) {
  EXPECT_THROW(analysis::decimate_and_reconstruct({}, 2), InvalidArgument);
  std::vector<Field> frames;
  frames.emplace_back("a", Dims::d3(4, 4, 4));
  EXPECT_THROW(analysis::decimate_and_reconstruct(frames, 0), InvalidArgument);
}

}  // namespace
}  // namespace cosmo
