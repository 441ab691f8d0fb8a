/// \file bench_fig5_power_spectrum.cpp
/// \brief Reproduces paper Fig. 5: power-spectrum ratio curves for the Nyx
/// fields under every device codec — fixed bitrates for the
/// rate-mode codecs, error bounds for the bounded ones — with the
/// 1 +/- 1% acceptance band; then derives the paper's per-field
/// configuration pick and the overall compression ratio (paper: cuZFP
/// rates (4,4,4,2,2,2) -> 10.7x; GPU-SZ bounds
/// (0.2, 0.4, 1e3, 2e5, 2e5, 2e5) -> 15.4x).
///
/// The per-codec candidate grids come from each codec's default sweep
/// lattice (default_grid_candidates), so a new codec-table row shows up here without edits. The composite spectra of the
/// paper's panels (overall density, velocity magnitude) are computed too.
#include <cmath>
#include <cstdio>

#include "analysis/power_spectrum.hpp"
#include "bench_util.hpp"
#include "foresight/cbench.hpp"
#include "foresight/cinema.hpp"
#include "foresight/sweep.hpp"

using namespace cosmo;

namespace {

constexpr double kKFraction = 0.5;  // evaluate k <= k_nyq/2

/// Device codecs, in codec-table order.
std::vector<std::string> device_codec_names() {
  std::vector<std::string> out;
  for (const auto& name : foresight::available_compressors()) {
    if (foresight::codec_capabilities(name).needs_device()) {
      out.push_back(name);
    }
  }
  return out;
}

/// Velocity magnitude field from three components.
Field velocity_magnitude(const io::Container& c) {
  const auto& vx = c.find("velocity_x").field.data;
  const auto& vy = c.find("velocity_y").field.data;
  const auto& vz = c.find("velocity_z").field.data;
  Field out("velocity_magnitude", c.find("velocity_x").field.dims);
  for (std::size_t i = 0; i < vx.size(); ++i) {
    out.data[i] = std::sqrt(vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]);
  }
  return out;
}

/// Sum of two density fields (the paper's "overall density" panel).
Field overall_density(const io::Container& c) {
  const auto& b = c.find("baryon_density").field.data;
  const auto& dm = c.find("dark_matter_density").field.data;
  Field out("overall_density", c.find("baryon_density").field.dims);
  for (std::size_t i = 0; i < b.size(); ++i) out.data[i] = b[i] + dm[i];
  return out;
}

}  // namespace

int main() {
  bench::banner("Fig. 5", "Nyx power-spectrum ratios with the 1 +/- 1% constraint");

  const io::Container nyx = bench::make_nyx();
  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  foresight::CBench cb({.keep_reconstructed = true, .dataset_name = "fig5"});
  foresight::ensure_directory(bench::out_dir());

  for (const auto& codec_name : device_codec_names()) {
    const auto codec = foresight::make_compressor(codec_name, &sim);
    std::printf("--- %s ---\n", codec_name.c_str());
    std::printf("%-22s %-14s %8s %12s %s\n", "field", "config", "ratio",
                "max |pk-1|", "verdict");
    std::printf("%s\n", std::string(75, '-').c_str());

    // Per-field: pick highest-ratio acceptable config (guideline step 2+3),
    // accumulating the overall six-field ratio.
    std::size_t total_original = 0;
    double total_compressed = 0.0;
    bool all_ok = true;
    // Keep the chosen reconstruction per field for composite spectra.
    std::map<std::string, std::vector<float>> chosen_recon;

    for (const auto& variable : nyx.variables) {
      const Field& field = variable.field;
      foresight::SvgPlot plot(
          strprintf("Fig 5: %s, %s", field.name.c_str(), codec_name.c_str()),
          "k (grid frequency)", "pk ratio");
      plot.add_hband(0.99, 1.01);
      plot.add_hline(1.0);

      double best_ratio = -1.0;
      std::string best_label = "none";
      const auto session = codec->open_session();  // buffers reused per config
      for (const auto& config : foresight::default_grid_candidates(codec_name, field)) {
        const auto r = cb.run_session(field, codec->name(), *session, config);
        const auto pk =
            analysis::pk_ratio(field.data, r.reconstructed, field.dims, kKFraction);
        const bool ok = analysis::pk_acceptable(pk, 0.01);
        std::printf("%-22s %-14s %8.2f %12.4f %s\n", field.name.c_str(),
                    config.label().c_str(), r.ratio, pk.max_deviation,
                    ok ? "OK" : "reject");
        plot.add_series({config.label(), pk.k, pk.ratio, "", false});
        if (ok && r.ratio > best_ratio) {
          best_ratio = r.ratio;
          best_label = config.label();
          chosen_recon[field.name] = r.reconstructed;
        }
      }
      if (best_ratio > 0.0) {
        std::printf("%-22s -> best-fit %s (%.2fx)\n", field.name.c_str(),
                    best_label.c_str(), best_ratio);
        total_original += field.bytes();
        total_compressed += static_cast<double>(field.bytes()) / best_ratio;
      } else {
        std::printf("%-22s -> no acceptable config in the sweep\n", field.name.c_str());
        all_ok = false;
      }
      plot.save(bench::out_dir() +
                strprintf("/fig5_%s_%s.svg", codec_name.c_str(), field.name.c_str()));
    }

    if (all_ok) {
      std::printf("\noverall six-field ratio with best-fit configs: %.2fx "
                  "(paper: cuZFP 10.7x, GPU-SZ 15.4x on the real 512^3 data)\n",
                  static_cast<double>(total_original) / total_compressed);
    }

    // Composite panels: overall density and velocity magnitude from the
    // chosen per-field reconstructions.
    if (chosen_recon.count("baryon_density") && chosen_recon.count("dark_matter_density")) {
      const Field orig = overall_density(nyx);
      Field recon = orig;
      const auto& b = chosen_recon["baryon_density"];
      const auto& dm = chosen_recon["dark_matter_density"];
      for (std::size_t i = 0; i < recon.data.size(); ++i) recon.data[i] = b[i] + dm[i];
      const auto pk = analysis::pk_ratio(orig.data, recon.data, orig.dims, kKFraction);
      std::printf("composite overall-density pk deviation: %.4f\n", pk.max_deviation);
    }
    if (chosen_recon.count("velocity_x") && chosen_recon.count("velocity_y") &&
        chosen_recon.count("velocity_z")) {
      const Field orig = velocity_magnitude(nyx);
      Field recon = orig;
      const auto& vx = chosen_recon["velocity_x"];
      const auto& vy = chosen_recon["velocity_y"];
      const auto& vz = chosen_recon["velocity_z"];
      for (std::size_t i = 0; i < recon.data.size(); ++i) {
        recon.data[i] =
            std::sqrt(vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]);
      }
      const auto pk = analysis::pk_ratio(orig.data, recon.data, orig.dims, kKFraction);
      std::printf("composite velocity-magnitude pk deviation: %.4f\n", pk.max_deviation);
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shapes (paper Fig. 5): density fields leave the band first as the\n"
      "rate drops / bound grows; velocities tolerate aggressive compression; the\n"
      "acceptable GPU-SZ pick compresses better than the acceptable cuZFP pick.\n");
  std::printf("artifacts: %s/fig5_*.svg\n", bench::out_dir().c_str());
  return 0;
}
