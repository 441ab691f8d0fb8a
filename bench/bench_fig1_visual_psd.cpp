/// \file bench_fig1_visual_psd.cpp
/// \brief Reproduces paper Fig. 1: visualization of original vs
/// GPU-SZ-reconstructed Nyx data at PW_REL = 0.1 and 0.25, plus the power
/// spectrum density comparison that reveals the difference the eye cannot
/// see. Writes PPM slice images and an SVG PSD plot under bench_out/.
#include <cstdio>

#include "analysis/power_spectrum.hpp"
#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "foresight/cinema.hpp"
#include "foresight/compressor.hpp"
#include "io/ppm.hpp"

int main() {
  using namespace cosmo;
  bench::banner("Fig. 1", "Nyx visualization + power spectrum density, PW_REL 0.1 vs 0.25");

  const io::Container nyx = bench::make_nyx();
  const Field& rho = nyx.find("baryon_density").field;

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();

  const std::string dir = bench::out_dir() + "/fig1";
  foresight::ensure_directory(dir);

  // Original slice image.
  io::write_ppm(io::render_slice(rho, rho.dims.nz / 2), dir + "/original.ppm");

  foresight::SvgPlot psd("Power spectrum ratio, baryon density", "k (grid frequency)",
                         "P_recon(k) / P_orig(k)");
  psd.add_hband(0.99, 1.01);
  psd.add_hline(1.0);

  std::printf("%-12s %8s %10s %16s\n", "PW_REL", "ratio", "PSNR(dB)", "max |pk-1|");
  std::printf("%s\n", std::string(50, '-').c_str());
  for (const double pwrel : {0.1, 0.25}) {
    const auto c = session->compress(rho, {"pw_rel", pwrel});
    auto d = session->decompress(c);
    Field recon(rho.name, rho.dims, std::move(d.values));
    io::write_ppm(io::render_slice(recon, rho.dims.nz / 2),
                  dir + strprintf("/recon_pwrel_%g.ppm", pwrel));
    const auto pk = analysis::pk_ratio(rho.data, recon.data, rho.dims, 0.8);
    const auto dist = analysis::compare(rho.data, recon.data);
    const double ratio = static_cast<double>(rho.bytes()) / c.bytes.size();
    std::printf("%-12g %8.2f %10.2f %16.4f %s\n", pwrel, ratio, dist.psnr_db,
                pk.max_deviation,
                pk.max_deviation <= 0.01 ? "(acceptable)" : "(NOT acceptable)");
    psd.add_series({strprintf("PW_REL = %g", pwrel), pk.k, pk.ratio, "", false});
  }
  psd.save(dir + "/psd_ratio.svg");

  std::printf(
      "\nExpected shape (paper Fig. 1): both reconstructions look identical in the\n"
      "slice images, but the PW_REL = 0.25 spectrum leaves the 1%% band while 0.1\n"
      "stays much closer — visual fidelity does not imply analysis fidelity.\n");
  std::printf("artifacts: %s/{original,recon_pwrel_*}.ppm, psd_ratio.svg\n", dir.c_str());
  return 0;
}
