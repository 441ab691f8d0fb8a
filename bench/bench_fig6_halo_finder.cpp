/// \file bench_fig6_halo_finder.cpp
/// \brief Reproduces paper Fig. 6: Friends-of-Friends halo-finder analysis
/// on original vs reconstructed HACC data — halo counts per mass bin
/// (left axis), count ratio (right axis) — one panel per device
/// codec: the paper's absolute position bounds for error-bounded codecs
/// (6a: GPU-SZ) and fixed bitrates for rate-mode codecs (6b: cuZFP); a
/// new device row in the codec table gets the next panel letter with no
/// edits here. Also derives the paper's configuration pick: GPU-SZ abs
/// 0.005/0.025 (positions/velocities) -> 4.25x vs cuZFP rate 8 -> 4x.
#include <cstdio>

#include "analysis/fof.hpp"
#include "analysis/halo_stats.hpp"
#include "bench_util.hpp"
#include "foresight/cbench.hpp"
#include "foresight/cinema.hpp"

using namespace cosmo;

namespace {

constexpr std::size_t kMassBins = 10;

void print_comparison(const std::string& label,
                      const analysis::HaloComparison& cmp) {
  std::printf("%s\n", label.c_str());
  std::printf("    %-24s %10s %10s %8s\n", "mass bin", "orig", "recon", "ratio");
  for (std::size_t b = 0; b < cmp.original.size(); ++b) {
    if (cmp.original[b].count == 0 && cmp.reconstructed[b].count == 0) continue;
    std::printf("    [%.3g, %.3g) %12zu %10zu %8.3f\n", cmp.original[b].mass_lo,
                cmp.original[b].mass_hi, cmp.original[b].count,
                cmp.reconstructed[b].count, cmp.ratio[b]);
  }
  std::printf("    total count ratio %.3f, max bin deviation %.3f\n",
              cmp.total_ratio, cmp.max_ratio_deviation);
}

}  // namespace

int main() {
  bench::banner("Fig. 6", "halo-finder comparison on original vs reconstructed HACC");

  const io::Container hacc = bench::make_hacc();
  const auto& x = hacc.find("x").field;
  const auto& y = hacc.find("y").field;
  const auto& z = hacc.find("z").field;

  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 20;
  const auto original = analysis::fof(x.data, y.data, z.data, fof_params);
  std::printf("original snapshot: %zu halos\n\n", original.halos.size());

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  foresight::CBench cb({.keep_reconstructed = true, .dataset_name = "fig6"});
  foresight::ensure_directory(bench::out_dir());

  struct Panel {
    std::string codec;
    std::vector<foresight::CompressorConfig> configs;
  };
  // One panel per device codec: the paper's absolute position
  // bounds when the codec is error-bounded, its fixed bitrates otherwise.
  std::vector<Panel> panels;
  for (const auto& name : foresight::available_compressors()) {
    const auto& caps = foresight::codec_capabilities(name);
    if (!caps.needs_device()) continue;
    if (caps.supports_mode("abs")) {
      panels.push_back(
          {name, {{"abs", 0.001}, {"abs", 0.005}, {"abs", 0.025}, {"abs", 0.25}}});
    } else {
      panels.push_back(
          {name, {{"rate", 16.0}, {"rate", 8.0}, {"rate", 4.0}, {"rate", 2.0}}});
    }
  }

  for (std::size_t panel_index = 0; panel_index < panels.size(); ++panel_index) {
    const auto& panel = panels[panel_index];
    const auto codec = foresight::make_compressor(panel.codec, &sim);
    std::printf("--- Fig. 6%c: %s ---\n", static_cast<char>('a' + panel_index),
                panel.codec.c_str());
    foresight::SvgPlot plot(
        strprintf("Fig 6: halo count ratio, %s", panel.codec.c_str()),
        "halo mass (particles)", "count ratio (recon / orig)");
    plot.set_log_x(true);
    plot.add_hline(1.0);

    double best_ratio = -1.0;
    std::string best_label = "none";
    const auto session = codec->open_session();  // buffers reused per config
    for (const auto& config : panel.configs) {
      const auto rx = cb.run_session(x, codec->name(), *session, config);
      const auto ry = cb.run_session(y, codec->name(), *session, config);
      const auto rz = cb.run_session(z, codec->name(), *session, config);
      const auto recon = analysis::fof(rx.reconstructed, ry.reconstructed,
                                       rz.reconstructed, fof_params);
      const double compression = 3.0 * static_cast<double>(x.bytes()) /
                                 static_cast<double>(rx.compressed_bytes +
                                                     ry.compressed_bytes +
                                                     rz.compressed_bytes);
      if (recon.halos.empty()) {
        std::printf("%s (position ratio %.2fx): halo structure destroyed\n\n",
                    config.label().c_str(), compression);
        continue;
      }
      const auto cmp =
          analysis::compare_halo_catalogs(original.halos, recon.halos, 1.0, kMassBins);
      print_comparison(strprintf("%s (position ratio %.2fx)", config.label().c_str(),
                                 compression),
                       cmp);
      std::printf("\n");
      std::vector<double> mass_centers;
      for (const auto& bin : cmp.original) {
        mass_centers.push_back(0.5 * (bin.mass_lo + bin.mass_hi));
      }
      plot.add_series({config.label(), mass_centers, cmp.ratio, "", false});
      if (cmp.max_ratio_deviation <= 0.05 && compression > best_ratio) {
        best_ratio = compression;
        best_label = config.label();
      }
    }
    std::printf("best halo-preserving position config for %s: %s (%.2fx)\n\n",
                panel.codec.c_str(), best_label.c_str(), best_ratio);
    plot.save(bench::out_dir() + strprintf("/fig6_%s_halo_ratio.svg",
                                           panel.codec.c_str()));
  }

  std::printf(
      "Expected shape (paper Fig. 6): count ratios stay ~1 across the mass range at\n"
      "tight bounds / high rates; small-mass bins degrade first as compression gets\n"
      "aggressive; GPU-SZ preserves halos at a slightly better ratio than cuZFP\n"
      "(paper: 4.25x vs 4x).\n");
  std::printf("artifacts: %s/fig6_*_halo_ratio.svg\n", bench::out_dir().c_str());
  return 0;
}
