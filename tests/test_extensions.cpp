#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "cosmo/nyx_synth.hpp"
#include "gpu/node.hpp"
#include "random/rng.hpp"
#include "sz/rate_estimate.hpp"
#include "zfp/zfp.hpp"

#include "rate_estimate_reference.hpp"

namespace cosmo {
namespace {

std::vector<float> smooth(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(dims.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(60.0 * std::sin(0.03 * static_cast<double>(i)) +
                                rng.normal());
  }
  return out;
}

// ---------- ZFP fixed-precision mode ----------

TEST(ZfpPrecision, RoundTripAndMonotoneQuality) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth(dims, 201);
  double prev_rmse = 1e300;
  std::size_t prev_size = 0;
  for (const unsigned prec : {8u, 16u, 24u, 32u}) {
    zfp::Params params;
    params.mode = zfp::Mode::kFixedPrecision;
    params.precision = prec;
    const auto bytes = zfp::compress(data, dims, params);
    const auto recon = zfp::decompress(bytes);
    double rmse = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      rmse += std::pow(static_cast<double>(recon[i]) - data[i], 2.0);
    }
    rmse = std::sqrt(rmse / static_cast<double>(data.size()));
    EXPECT_LT(rmse, prev_rmse) << "precision " << prec;
    EXPECT_GT(bytes.size(), prev_size) << "precision " << prec;
    prev_rmse = rmse;
    prev_size = bytes.size();
  }
  EXPECT_LT(prev_rmse, 1e-3);  // 32 planes ~ near-lossless
}

TEST(ZfpPrecision, ErrorScalesWithLocalMagnitude) {
  // Fixed precision keeps planes relative to each block's exponent, so a
  // large-magnitude block gets proportionally larger absolute error than a
  // small-magnitude one — unlike fixed-accuracy mode.
  const Dims dims = Dims::d3(8, 8, 8);
  std::vector<float> data(dims.count());
  Rng rng(202);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Alternate 4-plane slabs so every 4x4x4 ZFP block is homogeneous.
    const bool big = ((i / 64) / 4) % 2 == 0;
    data[i] = static_cast<float>((big ? 1e6 : 1.0) * (1.0 + 0.1 * rng.normal()));
  }
  zfp::Params params;
  params.mode = zfp::Mode::kFixedPrecision;
  params.precision = 14;
  const auto recon = zfp::decompress(zfp::compress(data, dims, params));
  double max_err_big = 0.0, max_err_small = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double e = std::fabs(static_cast<double>(recon[i]) - data[i]);
    if (data[i] > 100.0f) max_err_big = std::max(max_err_big, e);
    else max_err_small = std::max(max_err_small, e);
  }
  EXPECT_GT(max_err_big, max_err_small * 100.0);
}

TEST(ZfpPrecision, InvalidPrecisionRejected) {
  const std::vector<float> data(64, 1.0f);
  zfp::Params params;
  params.mode = zfp::Mode::kFixedPrecision;
  params.precision = 0;
  EXPECT_THROW(zfp::compress(data, Dims::d3(4, 4, 4), params), InvalidArgument);
  params.precision = 40;
  EXPECT_THROW(zfp::compress(data, Dims::d3(4, 4, 4), params), InvalidArgument);
}

// ---------- SZ rate estimator ----------

TEST(RateEstimate, TracksActualCompressedRate) {
  const Dims dims = Dims::d3(24, 24, 24);
  const auto data = smooth(dims, 203);
  for (const double bound : {0.01, 0.1, 1.0}) {
    sz::Params params;
    params.abs_error_bound = bound;
    const auto est = sz::estimate_rate(data, dims, params);
    sz::Stats stats;
    sz::compress(data, dims, params, &stats);
    // Estimate within 35% of the real stream (entropy bound + LZSS slack).
    EXPECT_GT(est.estimated_bits_per_value, stats.bit_rate * 0.5) << bound;
    EXPECT_LT(est.estimated_bits_per_value, stats.bit_rate * 1.35 + 0.5) << bound;
  }
}

TEST(RateEstimate, MonotoneInErrorBound) {
  const Dims dims = Dims::d3(16, 16, 16);
  const auto data = smooth(dims, 204);
  double prev = 1e300;
  for (const double bound : {0.001, 0.01, 0.1, 1.0}) {
    sz::Params params;
    params.abs_error_bound = bound;
    const double est = sz::estimate_rate(data, dims, params).estimated_bits_per_value;
    EXPECT_LT(est, prev) << bound;
    prev = est;
  }
}

TEST(RateEstimate, NyxDensityAccuracyAcrossBounds) {
  // The guided optimizer substitutes the estimator for full evaluations on
  // pruned abs-mode candidates, so its accuracy on a genuine Nyx field is a
  // contract, not a nicety: across the bound lattice the estimate has to
  // stay within the entropy-vs-LZSS slack band of the real stream.
  NyxConfig config;
  config.dim = 32;
  const auto nyx = generate_nyx(config);
  const Field& field = nyx.find("baryon_density").field;
  const auto [lo, hi] = value_range(field.view());
  const double range = static_cast<double>(hi) - lo;
  for (const double frac : {1e-5, 1e-4, 1e-3, 1e-2}) {
    sz::Params params;
    params.abs_error_bound = range * frac;
    const auto est = sz::estimate_rate(field.data, field.dims, params);
    sz::Stats stats;
    sz::compress(field.data, field.dims, params, &stats);
    // Entropy is a lower bound on the Huffman stage, but LZSS can squeeze
    // below it on repetitive codes; 50% covers that on the loose bounds.
    EXPECT_GT(est.estimated_bits_per_value, stats.bit_rate * 0.5) << frac;
    EXPECT_LT(est.estimated_bits_per_value, stats.bit_rate * 1.35 + 0.5) << frac;
  }
}

TEST(RateEstimate, StrideSamplingTracksFullScan) {
  NyxConfig config;
  config.dim = 32;
  const auto nyx = generate_nyx(config);
  const Field& field = nyx.find("temperature").field;
  const auto [lo, hi] = value_range(field.view());
  sz::Params params;
  params.abs_error_bound = (static_cast<double>(hi) - lo) * 1e-4;
  const auto full = sz::estimate_rate(field.data, field.dims, params);
  EXPECT_EQ(full.sampled_blocks, full.total_blocks);
  for (const std::size_t stride : {2u, 4u, 8u}) {
    const auto sampled = sz::estimate_rate(field.data, field.dims, params, stride);
    EXPECT_EQ(sampled.total_blocks, full.total_blocks);
    // Ceil division: every stride-th block starting at 0 is sampled.
    EXPECT_EQ(sampled.sampled_blocks, (full.total_blocks + stride - 1) / stride);
    // Strided sampling is for speed, not a different answer: on a smooth
    // field the sampled estimate stays within 10% of the full scan.
    EXPECT_NEAR(sampled.estimated_bits_per_value, full.estimated_bits_per_value,
                0.10 * full.estimated_bits_per_value + 0.05)
        << stride;
  }
  // stride == 1 is exactly the full scan.
  const auto one = sz::estimate_rate(field.data, field.dims, params, 1);
  EXPECT_DOUBLE_EQ(one.estimated_bits_per_value, full.estimated_bits_per_value);
  EXPECT_THROW(sz::estimate_rate(field.data, field.dims, params, 0), InvalidArgument);
}

TEST(RateEstimate, BitwiseEqualToFieldSizedOracle) {
  // Nyx fields plus seeded smooth-plus-noise fields of every rank, with
  // extents that leave partial blocks at the far edges.
  NyxConfig config;
  config.dim = 32;
  config.seed = 9;
  const auto nyx = generate_nyx(config);
  std::vector<Field> fields;
  for (const char* name : {"baryon_density", "temperature", "velocity_x"}) {
    fields.push_back(nyx.find(name).field);
  }
  Rng rng(404);
  for (const Dims dims : {Dims::d3(13, 10, 9), Dims::d3(20, 1, 6), Dims::d2(37, 23),
                          Dims::d1(1000)}) {
    std::vector<float> v(dims.count());
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)) * 100.0 +
                                rng.normal());
    }
    fields.emplace_back("seeded", dims, std::move(v));
  }
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  for (const Field& field : fields) {
    const auto [lo, hi] = value_range(field.view());
    for (const double frac : {1e-6, 1e-4, 1e-2}) {
      for (const bool regression : {true, false}) {
        for (const std::size_t stride : {1u, 4u}) {
          sz::Params params;
          params.abs_error_bound = (static_cast<double>(hi) - lo) * frac;
          params.regression = regression;
          params.radius = frac < 1e-5 ? 64 : params.radius;  // forces unpredictables
          const auto got = sz::estimate_rate(field.data, field.dims, params, stride);
          const auto want =
              test::estimate_rate_reference(field.data, field.dims, params, stride);
          const std::string what = field.name + " frac " + std::to_string(frac) + " stride " +
                                   std::to_string(stride) + " regression " +
                                   std::to_string(regression);
          EXPECT_TRUE(same(got.entropy_bits_per_value, want.entropy_bits_per_value)) << what;
          EXPECT_TRUE(same(got.unpredictable_fraction, want.unpredictable_fraction)) << what;
          EXPECT_TRUE(same(got.estimated_bits_per_value, want.estimated_bits_per_value))
              << what;
          EXPECT_EQ(got.sampled_blocks, want.sampled_blocks) << what;
          EXPECT_EQ(got.total_blocks, want.total_blocks) << what;
        }
      }
    }
  }
}

TEST(RateEstimate, FlagsUnpredictableData) {
  const Dims dims = Dims::d3(8, 8, 8);
  Rng rng(205);
  std::vector<float> data(dims.count());
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1e9, 1e9));
  sz::Params params;
  params.abs_error_bound = 1e-6;  // hopeless bound on white noise
  const auto est = sz::estimate_rate(data, dims, params);
  EXPECT_GT(est.unpredictable_fraction, 0.5);
  EXPECT_GT(est.estimated_bits_per_value, 16.0);
}

// ---------- Multi-GPU node model ----------

TEST(NodeModel, SummitNodeReducesOverheadBelowOnePercent) {
  // The paper's scenario: 2.5 TB per snapshot over 1,024 nodes ~ 2.4 GB per
  // node, six V100s, ~10 s per timestep.
  gpu::NodeConfig node;
  node.gpu = gpu::find_device("V100");
  node.gpu_count = 6;
  node.simulation_seconds = 10.0;
  const std::uint64_t snapshot = 2'500'000'000ull;
  const auto report = gpu::model_node_compression(node, snapshot, 3.2);
  EXPECT_LT(report.overhead_fraction, 0.01);  // paper: "< 0.3%"
  EXPECT_GT(report.node_throughput_gbps, 50.0);
  EXPECT_GT(report.total_seconds, 0.0);
  // CPU comparison point: ~2 GB/s per node => > 10% overhead.
  EXPECT_GT(gpu::cpu_overhead_fraction(2.0, 25'000'000'000ull, 10.0), 0.1);
}

TEST(NodeModel, MoreGpusMoreThroughput) {
  gpu::NodeConfig one;
  one.gpu = gpu::find_device("V100");
  one.gpu_count = 1;
  gpu::NodeConfig six = one;
  six.gpu_count = 6;
  const std::uint64_t snapshot = 6'000'000'000ull;
  const auto r1 = gpu::model_node_compression(one, snapshot, 4.0);
  const auto r6 = gpu::model_node_compression(six, snapshot, 4.0);
  // Kernels scale ~6x but the two shared PCIe links cap transfer scaling,
  // so the node-level speedup lands between 2x and 6x.
  EXPECT_GT(r6.node_throughput_gbps, r1.node_throughput_gbps * 2.0);
  EXPECT_LT(r6.node_throughput_gbps, r1.node_throughput_gbps * 6.0);
}

TEST(NodeModel, SharedLinksSerializeTransfers) {
  gpu::NodeConfig shared;
  shared.gpu = gpu::find_device("V100");
  shared.gpu_count = 6;
  shared.pcie_links = 1;
  gpu::NodeConfig dedicated = shared;
  dedicated.pcie_links = 6;
  const std::uint64_t snapshot = 6'000'000'000ull;
  const auto r_shared = gpu::model_node_compression(shared, snapshot, 4.0);
  const auto r_dedicated = gpu::model_node_compression(dedicated, snapshot, 4.0);
  EXPECT_GT(r_shared.transfer_seconds, r_dedicated.transfer_seconds * 4.0);
}

TEST(NodeModel, InvalidConfigRejected) {
  gpu::NodeConfig node;
  node.gpu = gpu::find_device("V100");
  node.gpu_count = 0;
  EXPECT_THROW(gpu::model_node_compression(node, 1000, 4.0), InvalidArgument);
  EXPECT_THROW(gpu::cpu_overhead_fraction(0.0, 1000, 10.0), InvalidArgument);
}

}  // namespace
}  // namespace cosmo
