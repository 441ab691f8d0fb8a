/// End-to-end regression tests for the paper's headline qualitative claims:
/// if any of these fail, the reproduction no longer reproduces the paper.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fof.hpp"
#include "analysis/halo_stats.hpp"
#include "analysis/power_spectrum.hpp"
#include "common/error.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"

namespace cosmo {
namespace {

struct Fixture {
  io::Container nyx;
  gpu::GpuSimulator sim{gpu::find_device("Tesla V100")};

  Fixture() {
    NyxConfig config;
    config.dim = 32;
    nyx = generate_nyx(config);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// PSNR of GPU-SZ at (approximately) the bitrate cuZFP produces at `rate`.
double sz_psnr_at_matched_bitrate(const Field& field, double target_bitrate) {
  auto& f = fixture();
  const auto codec = foresight::make_compressor("gpu-sz", &f.sim);
  foresight::CBench bench;
  const auto [lo, hi] = value_range(field.view());
  const double range = static_cast<double>(hi) - lo;
  // Bisection on the error bound until the bitrate lands near the target.
  double frac_lo = 1e-8, frac_hi = 1e-1;
  foresight::CBenchResult best;
  for (int iter = 0; iter < 18; ++iter) {
    const double frac = std::sqrt(frac_lo * frac_hi);
    const auto r = bench.run_one(field, *codec, {"abs", range * frac});
    best = r;
    if (std::fabs(r.bit_rate - target_bitrate) < 0.15) break;
    if (r.bit_rate > target_bitrate) frac_lo = frac;
    else frac_hi = frac;
  }
  return best.distortion.psnr_db;
}

TEST(PaperClaims, SzBeatsZfpAtEqualBitrateOnSmoothNyxFields) {
  // Paper Fig. 4a: "GPU-SZ generally has higher PSNR than cuZFP with the
  // same bitrate on the Nyx dataset."
  auto& f = fixture();
  const auto cuzfp = foresight::make_compressor("cuzfp", &f.sim);
  foresight::CBench bench;
  for (const char* name : {"baryon_density", "temperature"}) {
    const Field& field = f.nyx.find(name).field;
    const auto zfp_result = bench.run_one(field, *cuzfp, {"rate", 6.0});
    const double sz_psnr = sz_psnr_at_matched_bitrate(field, zfp_result.bit_rate);
    EXPECT_GT(sz_psnr, zfp_result.distortion.psnr_db + 3.0) << name;
  }
}

TEST(PaperClaims, VelocityComponentsCompressNearlyIdentically) {
  // Paper Fig. 4: "their rate-distortion curves for velocity fields are
  // almost identical."
  auto& f = fixture();
  const auto cuzfp = foresight::make_compressor("cuzfp", &f.sim);
  foresight::CBench bench;
  std::vector<double> psnrs;
  for (const char* name : {"velocity_x", "velocity_y", "velocity_z"}) {
    psnrs.push_back(
        bench.run_one(f.nyx.find(name).field, *cuzfp, {"rate", 6.0}).distortion.psnr_db);
  }
  EXPECT_NEAR(psnrs[0], psnrs[1], 1.5);
  EXPECT_NEAR(psnrs[1], psnrs[2], 1.5);
}

TEST(PaperClaims, HigherPsnrDoesNotImplyAcceptablePowerSpectrum) {
  // Paper Section V-B: a GPU-SZ config with *higher* PSNR than an accepted
  // cuZFP config can still fail the pk test. We verify the weaker invariant
  // behind it: PSNR ordering and pk-deviation ordering can disagree across
  // codecs at some configuration pair.
  auto& f = fixture();
  const Field& field = f.nyx.find("baryon_density").field;
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &f.sim);
  const auto cuzfp = foresight::make_compressor("cuzfp", &f.sim);
  foresight::CBench bench({.keep_reconstructed = true, .dataset_name = "claims"});

  struct Point {
    double psnr, pk_dev;
  };
  std::vector<Point> points;
  for (const auto& [codec, cfg] :
       std::vector<std::pair<foresight::Compressor*, foresight::CompressorConfig>>{
           {gpu_sz.get(), {"abs", 30.0}},
           {gpu_sz.get(), {"abs", 5.0}},
           {cuzfp.get(), {"rate", 4.0}},
           {cuzfp.get(), {"rate", 8.0}}}) {
    const auto r = bench.run_one(field, *codec, cfg);
    const auto pk = analysis::pk_ratio(field.data, r.reconstructed, field.dims, 0.5);
    points.push_back({r.distortion.psnr_db, pk.max_deviation});
  }
  // At least one pair must be discordant (higher PSNR but worse pk).
  bool discordant = false;
  for (const auto& a : points) {
    for (const auto& b : points) {
      if (a.psnr > b.psnr + 0.5 && a.pk_dev > b.pk_dev * 1.05) discordant = true;
    }
  }
  EXPECT_TRUE(discordant);
}

TEST(PaperClaims, TightPositionBoundsPreserveHalosLooseOnesDoNot) {
  // Paper Fig. 6 in one assertion pair.
  HaccConfig config;
  config.particles = 25000;
  config.halo_count = 15;
  const auto hacc = generate_hacc(config);
  auto& f = fixture();
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &f.sim);
  foresight::CBench bench({.keep_reconstructed = true, .dataset_name = "claims"});

  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 15;
  const auto& x = hacc.find("x").field;
  const auto& y = hacc.find("y").field;
  const auto& z = hacc.find("z").field;
  const auto original = analysis::fof(x.data, y.data, z.data, fof_params);
  ASSERT_GT(original.halos.size(), 5u);

  auto deviation_at = [&](double bound) {
    const foresight::CompressorConfig cfg{"abs", bound};
    const auto rx = bench.run_one(x, *gpu_sz, cfg);
    const auto ry = bench.run_one(y, *gpu_sz, cfg);
    const auto rz = bench.run_one(z, *gpu_sz, cfg);
    const auto recon =
        analysis::fof(rx.reconstructed, ry.reconstructed, rz.reconstructed, fof_params);
    if (recon.halos.empty()) return 1.0;
    return analysis::compare_halo_catalogs(original.halos, recon.halos, 1.0)
        .max_ratio_deviation;
  };
  EXPECT_LE(deviation_at(0.005), 0.05);  // paper's accepted bound
  EXPECT_GT(deviation_at(4.0), 0.2);     // bound >> linking length breaks halos
}

TEST(PaperClaims, GpuOverheadFarBelowCpuAtPaperScale) {
  // Paper Fig. 8 / Section V-C: GPU compression including PCIe transfer is
  // far cheaper than the multicore CPU path.
  auto& f = fixture();
  const std::uint64_t field_bytes = 512ull * 512 * 512 * 4;
  const double gpu_seconds =
      f.sim.model_compression(field_bytes, field_bytes / 8,
                              f.sim.kernel_rates("zfp", 4.0).compress_gbps)
          .total();
  // Modeled 20-core ZFP at an optimistic 2 GB/s.
  const double cpu_seconds = static_cast<double>(field_bytes) / 2e9;
  EXPECT_LT(gpu_seconds * 10.0, cpu_seconds);
}

TEST(PaperClaims, ThroughputFallsMonotonicallyWithBitrate) {
  // Paper Fig. 10.
  auto& f = fixture();
  double prev = 1e300;
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const std::uint64_t raw = 256ull << 20;
    const auto cbytes = static_cast<std::uint64_t>(raw * rate / 32.0);
    const double seconds =
        f.sim.model_compression(raw, cbytes, f.sim.kernel_rates("zfp", rate).compress_gbps).total();
    const double gbps = static_cast<double>(raw) / seconds / 1e9;
    EXPECT_LT(gbps, prev) << rate;
    prev = gbps;
  }
}

}  // namespace
}  // namespace cosmo
