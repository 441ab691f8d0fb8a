/// \file bench_fig9_gpu_scaling.cpp
/// \brief Reproduces paper Fig. 9: cuZFP compression and decompression
/// kernel throughput across the seven GPUs of Table I (the data transfer
/// time is identical for all — PCIe 3.0 x16 — so only kernel rates vary).
#include <cstdio>

#include "bench_util.hpp"
#include "foresight/cinema.hpp"
#include "gpu/sim.hpp"

using namespace cosmo;

int main() {
  bench::banner("Fig. 9", "cuZFP kernel throughput across Table I GPUs");

  const double rate = 4.0;  // the Fig. 5 best-fit density bitrate
  std::printf("fixed-rate bitrate: %.0f bits/value\n\n", rate);
  std::printf("%-20s %18s %18s\n", "GPU", "compress GB/s", "decompress GB/s");
  std::printf("%s\n", std::string(60, '-').c_str());

  foresight::ensure_directory(bench::out_dir());
  foresight::SvgPlot plot("Fig 9: cuZFP kernel throughput by GPU", "GPU index (Table I order)",
                          "kernel GB/s");
  std::vector<double> xs, comp, decomp;
  double idx = 1.0;
  for (const auto& spec : gpu::device_catalog()) {
    gpu::GpuSimulator sim(spec);
    // Paper methodology: warm up, then average over repeated runs.
    const auto comp_stats = gpu::measure_with_warmup([&] {
      return sim.kernel_seconds(1'000'000'000, sim.kernel_rates("zfp", rate).compress_gbps);
    });
    const auto dec_stats = gpu::measure_with_warmup([&] {
      return sim.kernel_seconds(1'000'000'000, sim.kernel_rates("zfp", rate).decompress_gbps);
    });
    const double comp_gbps = 1.0 / comp_stats.mean();
    const double dec_gbps = 1.0 / dec_stats.mean();
    std::printf("%-20s %18.1f %18.1f\n", spec.name.c_str(), comp_gbps, dec_gbps);
    xs.push_back(idx++);
    comp.push_back(comp_gbps);
    decomp.push_back(dec_gbps);
  }
  plot.add_series({"compression", xs, comp, "", false});
  plot.add_series({"decompression", xs, decomp, "", true});
  plot.save(bench::out_dir() + "/fig9_gpu_scaling.svg");

  std::printf(
      "\nExpected shape (paper Fig. 9): kernel throughput rises with upgraded\n"
      "hardware — more shaders, higher peak FLOPS, higher memory bandwidth; the\n"
      "V100/Titan V lead, the K80 trails.\n");
  std::printf("artifacts: %s/fig9_gpu_scaling.svg\n", bench::out_dir().c_str());
  return 0;
}
