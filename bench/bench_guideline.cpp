/// \file bench_guideline.cpp
/// \brief Reproduces the paper's Section V-D optimization guideline on both
/// datasets across every device codec: benchmark candidate
/// configurations, filter by the cosmology metrics (power spectrum for
/// Nyx, halo counts + bulk velocities for HACC), pick the highest-ratio
/// acceptable config per field, and report the overall compression ratio —
/// the numbers that in the paper come out as Nyx: cuZFP 10.7x / GPU-SZ
/// 15.4x and HACC: cuZFP ~4x / GPU-SZ 4.25x. The codec roster and the
/// default candidate grids come from the codec table (optimize_dataset), so a
/// new backend joins the guideline without edits here.
#include <cstdio>

#include "bench_util.hpp"
#include "foresight/optimizer.hpp"

using namespace cosmo;

namespace {

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

}  // namespace

int main() {
  bench::banner("Guideline (Sec. V-D)", "best-fit configuration search on Nyx and HACC");

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  const auto codec_names = device_codec_names();
  // Default tolerances and candidates; the FoF parameters apply to HACC.
  foresight::OptimizeSpec spec;
  spec.fof.linking_length = 1.0;
  spec.fof.min_members = 20;

  // ---------------- Nyx ----------------
  const io::Container nyx = bench::make_nyx();
  for (const auto& codec_name : codec_names) {
    spec.codec = codec_name;
    const auto codec = foresight::make_compressor(codec_name, &sim);
    const auto result = foresight::optimize_dataset(nyx, *codec, spec);
    std::printf("--- Nyx, %s ---\n%s\n", codec_name.c_str(),
                foresight::format_optimization(result).c_str());
  }
  std::printf("(paper, real 512^3 Nyx: cuZFP rates (4,4,4,2,2,2) -> 10.7x;"
              " GPU-SZ bounds (0.2,0.4,1e3,2e5,2e5,2e5) -> 15.4x)\n\n");

  // ---------------- HACC ----------------
  const io::Container hacc = bench::make_hacc();
  for (const auto& codec_name : codec_names) {
    spec.codec = codec_name;
    const auto codec = foresight::make_compressor(codec_name, &sim);
    const auto result = foresight::optimize_dataset(hacc, *codec, spec);
    std::printf("--- HACC, %s ---\n%s\n", codec_name.c_str(),
                foresight::format_optimization(result).c_str());
  }
  std::printf("(paper, real 1.07e9-particle HACC: GPU-SZ abs 0.005/0.025 -> 4.25x;"
              " cuZFP rate 8 -> 4x)\n");
  std::printf(
      "\nExpected shape: every codec finds acceptable configs; GPU-SZ's best\n"
      "acceptable overall ratio beats cuZFP's on both datasets.\n");
  return 0;
}
