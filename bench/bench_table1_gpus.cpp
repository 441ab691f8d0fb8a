/// \file bench_table1_gpus.cpp
/// \brief Reproduces paper Table I ("Specifications of Different GPUs Used
/// in Our Experiments") from the device catalog, and appends the modeled
/// cuZFP kernel rates each spec implies — the numbers every throughput
/// figure is built from.
#include <cstdio>

#include "gpu/sim.hpp"
#include "gpu/specs.hpp"

int main() {
  using namespace cosmo;
  std::printf("Table I: Specifications of Different GPUs Used in Our Experiments\n\n");
  std::printf("%s\n", gpu::format_table1().c_str());
  std::printf("note: Tesla K80 is a dual-die board; per-die values are listed\n");
  std::printf("      (the paper prints 12x2 GB, 2496x2 shaders, 4x2 TFLOPS, 240x2 GB/s)\n\n");

  std::printf("Derived cuZFP kernel-rate model (GB/s of uncompressed data):\n");
  std::printf("%-20s %14s %14s\n", "GPU", "comp @ rate 4", "decomp @ rate 4");
  for (const auto& spec : gpu::device_catalog()) {
    const auto rates = gpu::GpuSimulator(spec).kernel_rates("zfp", 4.0);
    std::printf("%-20s %14.1f %14.1f\n", spec.name.c_str(), rates.compress_gbps,
                rates.decompress_gbps);
  }
  std::printf("\nPCIe model shared by all devices: %.1f GB/s effective, %.0f us latency\n",
              gpu::kPcieGbps, gpu::kPcieLatency * 1e6);
  return 0;
}
