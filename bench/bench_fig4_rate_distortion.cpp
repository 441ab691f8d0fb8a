/// \file bench_fig4_rate_distortion.cpp
/// \brief Reproduces paper Fig. 4: rate-distortion (PSNR vs bitrate) of the
/// device codecs on (a) the Nyx fields and (b) the HACC fields.
///
/// The codec roster comes from the codec table: every compressor whose
/// capabilities say needs_device() participates (GPU-SZ, cuZFP, FZ, and any
/// future backend — this file never names codecs). Error-bounded codecs
/// sweep bounds (ABS for densities/temperature, PW_REL for HACC velocities
/// when supported, matching Section IV-B4); rate-mode codecs sweep fixed
/// bitrates. Each series is printed as (bitrate, PSNR) rows and plotted to
/// SVG; dashed styling follows CodecCapabilities::plot_dashed, as in the
/// paper (solid = GPU-SZ, dashed = cuZFP).
#include <cstdio>
#include <map>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "foresight/cbench.hpp"
#include "foresight/cinema.hpp"

using namespace cosmo;

namespace {

struct Series {
  std::vector<double> bitrate;
  std::vector<double> psnr;
};

void print_series(const std::string& label, const Series& s) {
  std::printf("%s\n", label.c_str());
  for (std::size_t i = 0; i < s.bitrate.size(); ++i) {
    std::printf("    bitrate %7.3f  PSNR %7.2f dB\n", s.bitrate[i], s.psnr[i]);
  }
}

/// Sweeps one compressor over one field; returns (bitrate, psnr) points
/// sorted by bitrate. One session serves the whole sweep, so stream and
/// reconstruction buffers are reused across configs.
Series sweep(foresight::CBench& bench, const Field& field,
             foresight::Compressor& codec,
             const std::vector<foresight::CompressorConfig>& configs) {
  Series s;
  const auto session = codec.open_session();
  foresight::CompressResult c;
  foresight::DecompressResult d;
  std::vector<std::pair<double, double>> points;
  for (const auto& config : configs) {
    const auto r = bench.run_session(field, codec.name(), *session, config, c, d);
    points.emplace_back(r.bit_rate, r.distortion.psnr_db);
  }
  std::sort(points.begin(), points.end());
  for (const auto& [b, p] : points) {
    s.bitrate.push_back(b);
    s.psnr.push_back(p);
  }
  return s;
}

/// Error-bound sweep spanning the field's dynamic range: bounds are set as
/// fractions of the value range so every field gets a comparable bitrate
/// span.
std::vector<foresight::CompressorConfig> abs_sweep(const Field& field) {
  const auto [lo, hi] = value_range(field.view());
  const double range = static_cast<double>(hi) - lo;
  std::vector<foresight::CompressorConfig> configs;
  for (const double frac : {3e-7, 3e-6, 3e-5, 3e-4, 3e-3, 3e-2}) {
    configs.push_back({"abs", range * frac});
  }
  return configs;
}

const std::vector<foresight::CompressorConfig> kRateSweep = {
    {"rate", 1.0}, {"rate", 2.0}, {"rate", 4.0}, {"rate", 6.0},
    {"rate", 8.0}, {"rate", 12.0}, {"rate", 16.0}};

/// Picks the sweep for one codec on one field from its capabilities:
/// PW_REL for velocity components when the codec supports it (Sec. IV-B4),
/// otherwise range-scaled ABS bounds, otherwise fixed bitrates.
std::vector<foresight::CompressorConfig> sweep_for(
    const foresight::CodecCapabilities& caps, const Field& field, bool velocity) {
  if (velocity && caps.supports_mode("pw_rel")) {
    std::vector<foresight::CompressorConfig> configs;
    for (const double b : {1e-4, 1e-3, 5e-3, 2e-2, 1e-1, 3e-1}) {
      configs.push_back({"pw_rel", b});
    }
    return configs;
  }
  if (caps.supports_mode("abs")) return abs_sweep(field);
  return kRateSweep;
}

/// One device codec plus its capability record.
struct DeviceCodec {
  std::unique_ptr<foresight::Compressor> codec;
  const foresight::CodecCapabilities* caps;
};

std::vector<DeviceCodec> device_codecs(gpu::GpuSimulator& sim) {
  std::vector<DeviceCodec> out;
  for (const auto& name : foresight::available_compressors()) {
    const auto& caps = foresight::codec_capabilities(name);
    if (!caps.needs_device()) continue;
    out.push_back({foresight::make_compressor(name, &sim), &caps});
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Fig. 4", "rate-distortion of the registered device codecs on Nyx and HACC");

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  auto codecs = device_codecs(sim);
  foresight::CBench bench({.keep_reconstructed = false, .dataset_name = "fig4"});

  foresight::ensure_directory(bench::out_dir());
  foresight::SvgPlot plot_nyx("Fig 4a: Nyx rate-distortion", "bitrate (bits/value)",
                              "PSNR (dB)");
  foresight::SvgPlot plot_hacc("Fig 4b: HACC rate-distortion", "bitrate (bits/value)",
                               "PSNR (dB)");

  // ---------- (a) Nyx ----------
  std::printf("--- Fig. 4a: Nyx ---\n");
  const io::Container nyx = bench::make_nyx();
  for (const auto& variable : nyx.variables) {
    const Field& field = variable.field;
    for (auto& [codec, caps] : codecs) {
      const Series series = sweep(bench, field, *codec, sweep_for(*caps, field, false));
      print_series(caps->name + "  " + field.name, series);
      plot_nyx.add_series({field.name + " (" + caps->name + ")", series.bitrate,
                           series.psnr, "", caps->plot_dashed});
    }
  }

  // ---------- (b) HACC ----------
  std::printf("\n--- Fig. 4b: HACC ---\n");
  const io::Container hacc = bench::make_hacc();
  for (const auto& variable : hacc.variables) {
    const Field& field = variable.field;
    const bool is_velocity = field.name[0] == 'v';
    for (auto& [codec, caps] : codecs) {
      const auto configs = sweep_for(*caps, field, is_velocity);
      const Series series = sweep(bench, field, *codec, configs);
      print_series(caps->name + "  " + field.name + " (" + configs.front().mode + ")",
                   series);
      plot_hacc.add_series({field.name + " (" + caps->name + ")", series.bitrate,
                            series.psnr, "", caps->plot_dashed});
    }
  }

  plot_nyx.save(bench::out_dir() + "/fig4a_nyx_rate_distortion.svg");
  plot_hacc.save(bench::out_dir() + "/fig4b_hacc_rate_distortion.svg");

  std::printf(
      "\nExpected shapes (paper Fig. 4): PSNR grows near-linearly with bitrate for\n"
      "every codec; GPU-SZ beats cuZFP at equal bitrate on the smooth Nyx fields;\n"
      "the three velocity curves are nearly identical; the SZ-family codecs drop at\n"
      "very low bitrates on density/temperature (independent-block decorrelation).\n");
  std::printf("artifacts: %s/fig4{a,b}_*.svg\n", bench::out_dir().c_str());
  return 0;
}
