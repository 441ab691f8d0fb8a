/// \file bench_fig10_throughput_bitrate.cpp
/// \brief Reproduces paper Fig. 10: cuZFP compression and decompression
/// throughput on the Nyx dataset as a function of bitrate — kernel-only
/// (solid) vs overall including CPU-GPU transfer (dashed) — against the
/// no-compression transfer baseline. This is the figure behind the
/// guideline's "highest acceptable ratio also maximizes throughput".
#include <cstdio>

#include "bench_util.hpp"
#include "foresight/cinema.hpp"
#include "gpu/sim.hpp"

using namespace cosmo;

int main() {
  bench::banner("Fig. 10", "cuZFP throughput vs bitrate, kernel vs overall, Tesla V100");

  // Paper-scale field (512^3 floats); fixed-rate stream sizes are
  // deterministic so the throughput model needs no real buffer.
  const std::size_t dim = bench::env_size("REPRO_FIG7_DIM", 512);
  const std::uint64_t raw = static_cast<std::uint64_t>(dim) * dim * dim * 4;

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  const double baseline_gbps =
      static_cast<double>(raw) / sim.baseline_transfer_seconds(raw) / 1e9;

  std::printf("field: one Nyx variable at %zu^3 (%s); "
              "no-compression transfer baseline: %.2f GB/s\n\n",
              dim, human_bytes(raw).c_str(), baseline_gbps);
  std::printf("%8s %8s | %12s %12s | %12s %12s\n", "bitrate", "ratio", "comp kern",
              "comp overall", "dec kern", "dec overall");
  std::printf("%s\n", std::string(75, '-').c_str());

  foresight::ensure_directory(bench::out_dir());
  foresight::SvgPlot plot("Fig 10: cuZFP throughput vs bitrate", "bitrate (bits/value)",
                          "throughput (GB/s)");
  plot.add_hline(baseline_gbps, "no-compression transfer");
  std::vector<double> xs, ck, co, dk, dd;

  for (const double rate : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto cbytes =
        static_cast<std::uint64_t>(static_cast<double>(raw) * rate / 32.0);
    const double ratio = static_cast<double>(raw) / static_cast<double>(cbytes);

    const double comp_kernel = sim.kernel_rates("zfp", rate).compress_gbps;
    const double dec_kernel = sim.kernel_rates("zfp", rate).decompress_gbps;
    const double comp_overall =
        static_cast<double>(raw) /
        sim.model_compression(raw, cbytes, comp_kernel).total() / 1e9;
    const double dec_overall =
        static_cast<double>(raw) /
        sim.model_decompression(raw, cbytes, dec_kernel).total() / 1e9;

    std::printf("%8.1f %8.2f | %12.1f %12.2f | %12.1f %12.2f\n", rate, ratio,
                comp_kernel, comp_overall, dec_kernel, dec_overall);
    xs.push_back(rate);
    ck.push_back(comp_kernel);
    co.push_back(comp_overall);
    dk.push_back(dec_kernel);
    dd.push_back(dec_overall);
  }
  plot.add_series({"compression kernel", xs, ck, "", false});
  plot.add_series({"compression overall", xs, co, "", true});
  plot.add_series({"decompression kernel", xs, dk, "", false});
  plot.add_series({"decompression overall", xs, dd, "", true});
  plot.set_log_y(true);
  plot.save(bench::out_dir() + "/fig10_throughput_vs_bitrate.svg");

  std::printf(
      "\nExpected shapes (paper Fig. 10): both kernel and overall throughput fall\n"
      "as bitrate rises (more bit planes to code, more compressed bytes to move);\n"
      "the overall curve is transfer-bound, so a higher compression ratio (lower\n"
      "bitrate) directly buys higher end-to-end throughput — the guideline's\n"
      "justification for picking the highest acceptable ratio.\n");
  std::printf("artifacts: %s/fig10_throughput_vs_bitrate.svg\n", bench::out_dir().c_str());
  return 0;
}
