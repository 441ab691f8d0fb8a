/// Cross-module parameterized property sweeps: invariants that must hold
/// over whole parameter ranges, not just single configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fof.hpp"
#include "common/error.hpp"
#include "cosmo/nyx_sequence.hpp"
#include "io/container.hpp"
#include "random/rng.hpp"
#include "sz/pwrel.hpp"
#include "sz/temporal.hpp"

namespace cosmo {
namespace {

// ---------- FoF: halo count monotone in linking length ----------

class FofLinkingSweep : public ::testing::TestWithParam<double> {};

TEST_P(FofLinkingSweep, ParticlesInHalosGrowsWithLinkingLength) {
  // With a larger linking length, groups can only merge or absorb more
  // particles: the number of particles assigned to halos is monotone.
  static const auto cloud = [] {
    Rng rng(401);
    std::vector<std::array<float, 3>> pts;
    for (int blob = 0; blob < 5; ++blob) {
      const double cx = 40.0 + 40.0 * blob;
      for (int i = 0; i < 300; ++i) {
        pts.push_back({static_cast<float>(cx + rng.normal(0.0, 1.2)),
                       static_cast<float>(100.0 + rng.normal(0.0, 1.2)),
                       static_cast<float>(100.0 + rng.normal(0.0, 1.2))});
      }
    }
    return pts;
  }();
  std::vector<float> x, y, z;
  for (const auto& p : cloud) {
    x.push_back(p[0]);
    y.push_back(p[1]);
    z.push_back(p[2]);
  }
  analysis::FofParams params;
  params.min_members = 20;
  params.linking_length = GetParam();
  const auto smaller = analysis::fof(x, y, z, params);
  params.linking_length = GetParam() * 1.5;
  const auto larger = analysis::fof(x, y, z, params);
  auto assigned = [](const analysis::FofResult& r) {
    std::size_t n = 0;
    for (const auto id : r.halo_of_particle) {
      if (id >= 0) ++n;
    }
    return n;
  };
  EXPECT_GE(assigned(larger), assigned(smaller)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LinkingLengths, FofLinkingSweep,
                         ::testing::Values(0.3, 0.6, 1.0, 2.0));

// ---------- Temporal SZ: bound holds for every key interval ----------

class TemporalKeySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TemporalKeySweep, BoundHoldsAndKeyCountIsExact) {
  NyxSequenceConfig config;
  config.base.dim = 16;
  config.steps = 8;
  const auto frames = generate_nyx_density_sequence(config);
  sz::TemporalParams params;
  params.abs_error_bound = 1.0;
  params.key_interval = GetParam();
  sz::TemporalStats stats;
  const auto bytes = sz::compress_temporal(frames, params, &stats);
  const std::size_t expected_keys =
      GetParam() == 0 ? 1 : (frames.size() + GetParam() - 1) / GetParam();
  EXPECT_EQ(stats.key_frames, expected_keys);
  const auto recon = sz::decompress_temporal(bytes);
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (std::size_t i = 0; i < frames[t].data.size(); ++i) {
      ASSERT_LE(std::fabs(static_cast<double>(frames[t].data[i]) - recon[t].data[i]),
                1.0 * (1 + 1e-9))
          << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeyIntervals, TemporalKeySweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u));

// ---------- PW_REL: zero-threshold ratio sweep ----------

class ZeroThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZeroThresholdSweep, SubThresholdAlwaysExactZeroAboveAlwaysBounded) {
  const Dims dims = Dims::d3(8, 8, 8);
  Rng rng(403);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Mix of magnitudes spanning 12 decades around the threshold.
    data[i] = static_cast<float>(std::pow(10.0, rng.uniform(-8.0, 4.0)) *
                                 (rng.uniform() < 0.5 ? -1.0 : 1.0));
  }
  sz::PwRelParams params;
  params.pw_rel_bound = 0.05;
  params.zero_threshold_ratio = GetParam();
  const auto recon = sz::decompress_pwrel(sz::compress_pwrel(data, dims, params));
  double max_abs = 0.0;
  for (const float v : data) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
  const double thresh = max_abs * GetParam();
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::fabs(data[i]) <= thresh) {
      ASSERT_EQ(recon[i], 0.0f) << i;
    } else {
      ASSERT_LE(std::fabs(static_cast<double>(recon[i]) - data[i]) /
                    std::fabs(static_cast<double>(data[i])),
                0.05 * (1 + 1e-6))
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ZeroThresholdSweep,
                         ::testing::Values(1e-12, 1e-9, 1e-6, 1e-3));

// ---------- Containers: both dialects preserve any variable set ----------

class DialectSweep : public ::testing::TestWithParam<io::Dialect> {};

TEST_P(DialectSweep, ArbitraryVariableMixRoundTrips) {
  Rng rng(404);
  io::Container c;
  for (int v = 0; v < 5; ++v) {
    io::Variable variable;
    const int rank = 1 + static_cast<int>(rng.uniform_index(3));
    Dims dims = rank == 1   ? Dims::d1(1 + rng.uniform_index(500))
                : rank == 2 ? Dims::d2(1 + rng.uniform_index(20), 1 + rng.uniform_index(20))
                            : Dims::d3(1 + rng.uniform_index(8), 1 + rng.uniform_index(8),
                                       1 + rng.uniform_index(8));
    variable.field = Field("var" + std::to_string(v), dims);
    for (auto& x : variable.field.data) x = static_cast<float>(rng.normal());
    variable.attributes["note"] = "sweep, dialect test";
    c.variables.push_back(std::move(variable));
  }
  const std::string path = ::testing::TempDir() + "/dialect_sweep.bin";
  io::save(c, path, GetParam());
  const auto loaded = io::load(path);
  ASSERT_EQ(loaded.variables.size(), c.variables.size());
  for (std::size_t v = 0; v < c.variables.size(); ++v) {
    EXPECT_EQ(loaded.variables[v].field.data, c.variables[v].field.data);
    EXPECT_EQ(loaded.variables[v].field.dims, c.variables[v].field.dims);
    EXPECT_EQ(loaded.variables[v].attributes, c.variables[v].attributes);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Dialects, DialectSweep,
                         ::testing::Values(io::Dialect::kGenericIo,
                                           io::Dialect::kHdf5Lite));

}  // namespace
}  // namespace cosmo
