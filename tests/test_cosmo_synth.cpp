#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cosmo/dataset_info.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "io/crc32.hpp"

namespace cosmo {
namespace {

TEST(NyxSynth, ProducesSixFieldsWithTableIIRanges) {
  NyxConfig config;
  config.dim = 32;
  const io::Container c = generate_nyx(config);
  ASSERT_EQ(c.variables.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(c.variables[static_cast<std::size_t>(i)].field.name, kNyxFieldNames[i]);
    EXPECT_EQ(c.variables[static_cast<std::size_t>(i)].field.dims, Dims::d3(32, 32, 32));
  }
  const auto [rb_lo, rb_hi] = value_range(c.find("baryon_density").field.view());
  EXPECT_GT(rb_lo, 0.0f);
  EXPECT_LE(rb_hi, 1e5f);
  const auto [dm_lo, dm_hi] = value_range(c.find("dark_matter_density").field.view());
  EXPECT_GT(dm_lo, 0.0f);
  EXPECT_LE(dm_hi, 1e4f);
  const auto [t_lo, t_hi] = value_range(c.find("temperature").field.view());
  EXPECT_GE(t_lo, 1e2f);
  EXPECT_LE(t_hi, 1e7f);
  for (const char* name : {"velocity_x", "velocity_y", "velocity_z"}) {
    const auto [v_lo, v_hi] = value_range(c.find(name).field.view());
    EXPECT_GE(v_lo, -1e8f);
    EXPECT_LE(v_hi, 1e8f);
  }
}

TEST(NyxSynth, DeterministicForSeed) {
  NyxConfig config;
  config.dim = 16;
  const auto a = generate_nyx(config);
  const auto b = generate_nyx(config);
  EXPECT_EQ(a.find("baryon_density").field.data, b.find("baryon_density").field.data);
  config.seed = 43;
  const auto c = generate_nyx(config);
  EXPECT_NE(a.find("baryon_density").field.data, c.find("baryon_density").field.data);
}

TEST(NyxSynth, DensityHasLongUpperTail) {
  NyxConfig config;
  config.dim = 32;
  const auto c = generate_nyx(config);
  const auto& rho = c.find("baryon_density").field.data;
  double mean = 0.0, max_v = 0.0;
  for (const float v : rho) {
    mean += v;
    max_v = std::max(max_v, static_cast<double>(v));
  }
  mean /= static_cast<double>(rho.size());
  // Log-normal: the maximum is many times the mean (concentrated
  // distribution with extreme values, as the paper describes).
  EXPECT_GT(max_v / mean, 10.0);
}

TEST(NyxSynth, DeltaFieldIsZeroMeanUnitVariance) {
  NyxConfig config;
  config.dim = 32;
  const Field delta = generate_nyx_delta(config);
  double mean = 0.0, var = 0.0;
  for (const float v : delta.data) mean += v;
  mean /= static_cast<double>(delta.data.size());
  for (const float v : delta.data) var += (v - mean) * (v - mean);
  var /= static_cast<double>(delta.data.size());
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(NyxSynth, NonPow2Rejected) {
  NyxConfig config;
  config.dim = 48;
  EXPECT_THROW(generate_nyx(config), InvalidArgument);
}

TEST(HaccSynth, ProducesSixArraysWithTableIIRanges) {
  HaccConfig config;
  config.particles = 20000;
  config.halo_count = 20;
  const io::Container c = generate_hacc(config);
  ASSERT_EQ(c.variables.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(c.variables[static_cast<std::size_t>(i)].field.name, kHaccFieldNames[i]);
    EXPECT_EQ(c.variables[static_cast<std::size_t>(i)].field.data.size(), 20000u);
    EXPECT_EQ(c.variables[static_cast<std::size_t>(i)].field.dims.rank(), 1);
  }
  for (const char* name : {"x", "y", "z"}) {
    const auto [lo, hi] = value_range(c.find(name).field.view());
    EXPECT_GE(lo, 0.0f);
    EXPECT_LT(hi, 256.0f);
  }
  for (const char* name : {"vx", "vy", "vz"}) {
    const auto [lo, hi] = value_range(c.find(name).field.view());
    EXPECT_GE(lo, -1e4f);
    EXPECT_LE(hi, 1e4f);
  }
}

TEST(HaccSynth, TruthReportsHalos) {
  HaccConfig config;
  config.particles = 30000;
  config.halo_count = 15;
  std::vector<HaloTruth> truth;
  const auto c = generate_hacc(config, &truth);
  EXPECT_GT(truth.size(), 5u);
  std::size_t clustered = 0;
  for (const auto& h : truth) {
    EXPECT_GE(h.particles, config.min_halo_particles);
    EXPECT_GE(h.cx, 0.0);
    EXPECT_LT(h.cx, config.box);
    clustered += h.particles;
  }
  EXPECT_LE(clustered, config.particles);
  // Roughly the requested clustered fraction ended up in halos.
  EXPECT_GT(static_cast<double>(clustered) / static_cast<double>(config.particles), 0.4);
}

TEST(HaccSynth, ClusteringIsPresent) {
  // Clustered positions: variance of local density must far exceed uniform.
  HaccConfig config;
  config.particles = 20000;
  config.halo_count = 10;
  const auto c = generate_hacc(config);
  const auto& x = c.find("x").field.data;
  const auto& y = c.find("y").field.data;
  const auto& z = c.find("z").field.data;
  // Count particles in coarse cells.
  constexpr std::size_t g = 16;
  std::vector<int> counts(g * g * g, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto cx = std::min<std::size_t>(static_cast<std::size_t>(x[i] / 256.0 * g), g - 1);
    const auto cy = std::min<std::size_t>(static_cast<std::size_t>(y[i] / 256.0 * g), g - 1);
    const auto cz = std::min<std::size_t>(static_cast<std::size_t>(z[i] / 256.0 * g), g - 1);
    ++counts[(cz * g + cy) * g + cx];
  }
  const double mean = static_cast<double>(x.size()) / static_cast<double>(counts.size());
  double var = 0.0;
  for (const int n : counts) var += (n - mean) * (n - mean);
  var /= static_cast<double>(counts.size());
  // Poisson (uniform) would give var ~ mean; clustering inflates it hugely.
  EXPECT_GT(var / mean, 5.0);
}

TEST(HaccSynth, DeterministicForSeed) {
  HaccConfig config;
  config.particles = 5000;
  config.halo_count = 5;
  EXPECT_EQ(generate_hacc(config).find("x").field.data,
            generate_hacc(config).find("x").field.data);
}

TEST(HaccSynth, TooFewParticlesRejected) {
  HaccConfig config;
  config.particles = 10;
  EXPECT_THROW(generate_hacc(config), InvalidArgument);
}

/// crc32 of every field, in container order.
std::vector<std::uint32_t> field_crcs(const io::Container& c) {
  std::vector<std::uint32_t> out;
  for (const auto& v : c.variables) {
    out.push_back(crc32(v.field.data.data(), v.field.data.size() * sizeof(float)));
  }
  return out;
}

// The synthesizers fan their transforms and inverse CDFs out over a pool;
// the bytes must be the ones the serial generators always produced, at
// every pool size. The crcs were taken from the serial generators.
TEST(NyxSynth, PinnedBytesAtEveryPoolSize) {
  struct Pin {
    std::size_t dim;
    std::uint64_t seed;
    std::vector<std::uint32_t> crcs;
  };
  const Pin pins[] = {
      {16, 42, {0x1f4e3572, 0x932d1b55, 0xaaef16b1, 0xc7865eb9, 0x5a062ec8, 0x06e183a3}},
      {16, 3, {0x0e215264, 0xd3de816a, 0x0807c1d9, 0xbd020940, 0xe46714d0, 0x08059cf8}},
      {32, 42, {0xacaa1d8a, 0x0b8c60c8, 0x00a8bcf3, 0xfc33a3af, 0x67b96de2, 0x482b85f7}},
      {32, 3, {0x0890776d, 0x70713ca8, 0xbd7dba8d, 0x21167f77, 0x637b3a09, 0x165fa802}},
  };
  ThreadPool two(2), four(4);
  for (const Pin& pin : pins) {
    NyxConfig config;
    config.dim = pin.dim;
    config.seed = pin.seed;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two, &four}) {
      EXPECT_EQ(field_crcs(generate_nyx(config, pool)), pin.crcs)
          << "dim " << pin.dim << " seed " << pin.seed << " pool "
          << (pool ? pool->size() : 0);
    }
  }
}

TEST(HaccSynth, PinnedBytesAtEveryPoolSize) {
  HaccConfig many_halos;  // the pipeline-optimize shape: five mass draws per particle
  many_halos.particles = 20000;
  many_halos.halo_count = 100000;
  many_halos.seed = 11;
  HaccConfig defaults;
  defaults.particles = 5000;
  const std::pair<HaccConfig, std::vector<std::uint32_t>> pins[] = {
      {many_halos, {0xfbde2f46, 0x7a1af899, 0x1065ddfd, 0x5b230a27, 0xd6a20f9e, 0xbf0e2a76}},
      {defaults, {0xa37e0fb0, 0x610c5f83, 0x92537c00, 0x534e9246, 0x7fe8d93e, 0x1c62c107}},
  };
  ThreadPool two(2), four(4);
  for (const auto& [config, crcs] : pins) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two, &four}) {
      EXPECT_EQ(field_crcs(generate_hacc(config, nullptr, pool)), crcs)
          << "halos " << config.halo_count << " pool " << (pool ? pool->size() : 0);
    }
  }
}

TEST(DatasetInfo, PaperTableIIContents) {
  const auto hacc = hacc_paper_info();
  EXPECT_EQ(hacc.name, "HACC");
  EXPECT_EQ(hacc.dimension, "1,073,726,359");
  EXPECT_EQ(hacc.size, "38 GB");
  const auto nyx = nyx_paper_info();
  EXPECT_EQ(nyx.dimension, "512x512x512");
  EXPECT_EQ(nyx.size, "6.6 GB");
  EXPECT_EQ(nyx.fields.size(), 4u);
}

TEST(DatasetInfo, DescribeGeneratedContainer) {
  NyxConfig config;
  config.dim = 16;
  const auto c = generate_nyx(config);
  const auto info = describe(c, "Nyx-synthetic");
  EXPECT_EQ(info.name, "Nyx-synthetic");
  EXPECT_EQ(info.dimension, "16x16x16");
  EXPECT_EQ(info.fields.size(), 6u);
  const std::string table = format_table({info, nyx_paper_info()});
  EXPECT_NE(table.find("Nyx-synthetic"), std::string::npos);
  EXPECT_NE(table.find("512x512x512"), std::string::npos);
}

}  // namespace
}  // namespace cosmo
