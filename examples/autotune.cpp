/// \file autotune.cpp
/// \brief The Section V-D optimization guideline end-to-end: benchmark a
/// candidate configuration grid with CBench, filter by the domain metrics
/// (power-spectrum ratio within 1 +/- 1%), and pick the acceptable
/// configuration with the highest compression ratio per field.
///
/// Usage: autotune [--dim 64] [--compressor gpu-sz|cuzfp] [--tolerance 0.01]
#include <cstdio>

#include "common/cli.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/optimizer.hpp"

using namespace cosmo;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  NyxConfig nyx;
  nyx.dim = args.get_count("dim", 64);
  foresight::OptimizeSpec spec;
  spec.codec = args.get("compressor", "gpu-sz");
  spec.tolerance = args.get_double("tolerance", spec.tolerance);

  std::printf("Guideline run: %s on synthetic Nyx %zu^3, pk tolerance 1+/-%.0f%%\n\n",
              spec.codec.c_str(), nyx.dim, spec.tolerance * 100.0);
  const io::Container data = generate_nyx(nyx);

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  const auto codec = foresight::make_compressor(spec.codec, &sim);

  // The default candidate grid per field mirrors the paper's sweeps:
  // absolute error bounds scaled to each field's value range for GPU-SZ
  // (Fig. 5b), fixed bitrates for cuZFP (Fig. 5a).
  const auto result = foresight::optimize_dataset(data, *codec, spec);
  std::printf("%s", foresight::format_optimization(result).c_str());

  std::printf(
      "\nGuideline recap (paper Section V-D): among configurations whose power\n"
      "spectrum stays within the band, the highest compression ratio also gives\n"
      "the highest overall throughput and the lowest storage cost.\n");
  return result.all_fields_ok ? 0 : 1;
}
