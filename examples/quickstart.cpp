/// \file quickstart.cpp
/// \brief Five-minute tour of the library: generate a synthetic Nyx field,
/// compress it with GPU-SZ and cuZFP (on a simulated Tesla V100), and print
/// ratio / distortion / throughput — the paper's four metric families in
/// one screen.
///
/// Usage: quickstart [--dim 64] [--gpu "Tesla V100"]
#include <cstdio>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"

using namespace cosmo;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const std::string gpu_name = args.get("gpu", "Tesla V100");

  std::printf("== Quickstart: GPU lossy compression for cosmology ==\n\n");

  // 1. Synthetic Nyx snapshot (stands in for the 512^3 LBNL dataset).
  NyxConfig nyx;
  nyx.dim = dim;
  std::printf("Generating synthetic Nyx snapshot (%zu^3, 6 fields)...\n", dim);
  const io::Container dataset = generate_nyx(nyx);
  std::printf("  payload: %s\n\n", human_bytes(dataset.payload_bytes()).c_str());

  // 2. A simulated GPU from the paper's Table I.
  gpu::GpuSimulator sim(gpu::find_device(gpu_name));
  std::printf("Simulated device: %s (%.0f GB/s memory bandwidth)\n\n",
              sim.spec().name.c_str(), sim.spec().memory_bw_gbps);

  // 3. Run both GPU compressors through CBench. Each compressor opens a
  // codec session (the staged compress/decompress API); CBench fills the
  // metric rows from the staged results.
  foresight::CBench bench({.keep_reconstructed = false, .dataset_name = "nyx"});
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &sim);
  const auto cuzfp = foresight::make_compressor("cuzfp", &sim);
  const auto sz_session = gpu_sz->open_session();
  const auto zfp_session = cuzfp->open_session();

  std::vector<foresight::CBenchResult> results;
  const Field& rho = dataset.find("baryon_density").field;
  const Field& vx = dataset.find("velocity_x").field;
  results.push_back(bench.run_session(rho, gpu_sz->name(), *sz_session, {"abs", 0.2}));
  results.push_back(bench.run_session(rho, cuzfp->name(), *zfp_session, {"rate", 4.0}));
  results.push_back(bench.run_session(vx, gpu_sz->name(), *sz_session, {"pw_rel", 0.01}));
  results.push_back(bench.run_session(vx, cuzfp->name(), *zfp_session, {"rate", 4.0}));

  std::printf("%s\n", foresight::format_results(results).c_str());

  // 4. GPU time breakdown for one run (Fig. 7's four components).
  const auto& r = results[1];
  std::printf("cuZFP compression breakdown on %s (rate=4):\n", rho.name.c_str());
  std::printf("  init   %8.3f ms\n", r.compress.gpu_timing.init * 1e3);
  std::printf("  kernel %8.3f ms\n", r.compress.gpu_timing.kernel * 1e3);
  std::printf("  memcpy %8.3f ms (compressed stream, D2H over PCIe 3.0 x16)\n",
              r.compress.gpu_timing.memcpy * 1e3);
  std::printf("  free   %8.3f ms\n", r.compress.gpu_timing.free * 1e3);
  std::printf("  total  %8.3f ms  vs  %.3f ms to move the raw field uncompressed\n",
              r.compress.gpu_timing.total() * 1e3,
              sim.baseline_transfer_seconds(rho.bytes()) * 1e3);
  if (rho.bytes() < 64u << 20) {
    std::printf(
        "  (note: at this demo size fixed launch/alloc overheads dominate; at the\n"
        "   paper's 512^3 fields compression beats the raw transfer — see\n"
        "   bench_fig7_breakdown)\n");
  }
  return 0;
}
