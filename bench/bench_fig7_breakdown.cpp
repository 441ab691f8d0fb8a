/// \file bench_fig7_breakdown.cpp
/// \brief Reproduces paper Fig. 7: breakdown of cuZFP compression (7a) and
/// decompression (7b) time into init / kernel / memcpy / free on the Nyx
/// dataset across bitrates, on the simulated Tesla V100, against the
/// no-compression PCIe transfer baseline. Uses the paper's measurement
/// methodology (10 warm-ups, then average/stddev over 10 runs).
#include <cstdio>

#include "bench_util.hpp"
#include "foresight/cinema.hpp"
#include "gpu/sim.hpp"

using namespace cosmo;

int main() {
  bench::banner("Fig. 7", "cuZFP (de)compression time breakdown vs bitrate, Tesla V100");

  // Timing is modeled at the paper's true field size (512^3 floats): the
  // fixed-rate stream size is deterministic (rate/32 of the raw size), so
  // no actual 536 MB buffer is needed; REPRO_FIG7_DIM rescales.
  const std::size_t dim = bench::env_size("REPRO_FIG7_DIM", 512);
  const std::uint64_t raw_bytes = static_cast<std::uint64_t>(dim) * dim * dim * 4;

  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));

  const double baseline_ms = sim.baseline_transfer_seconds(raw_bytes) * 1e3;
  std::printf("field: one Nyx variable at %zu^3 (%s); baseline raw transfer: %.3f ms\n\n",
              dim, human_bytes(raw_bytes).c_str(), baseline_ms);

  foresight::ensure_directory(bench::out_dir());
  foresight::SvgPlot plot_c("Fig 7a: cuZFP compression breakdown",
                            "bitrate (bits/value)", "time (ms)");
  foresight::SvgPlot plot_d("Fig 7b: cuZFP decompression breakdown",
                            "bitrate (bits/value)", "time (ms)");
  plot_c.add_hline(baseline_ms, "no-compression transfer");
  plot_d.add_hline(baseline_ms, "no-compression transfer");

  struct Row {
    double bitrate;
    TimingBreakdown comp, decomp;
    double comp_std_ms, decomp_std_ms;
  };
  std::vector<Row> rows;

  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    // Fixed-rate mode: the compressed size is exactly rate/32 of the raw
    // size (verified by tests/test_zfp.cpp on real codec execution).
    const auto compressed_bytes =
        static_cast<std::uint64_t>(static_cast<double>(raw_bytes) * rate / 32.0);
    // The paper's warm-up/measure loop over the timing model.
    Row row;
    row.bitrate = rate;
    const RunningStats comp_stats = gpu::measure_with_warmup([&] {
      row.comp = sim.model_compression(raw_bytes, compressed_bytes,
                                       sim.kernel_rates("zfp", rate).compress_gbps);
      return row.comp.total();
    });
    const RunningStats decomp_stats = gpu::measure_with_warmup([&] {
      row.decomp = sim.model_decompression(raw_bytes, compressed_bytes,
                                           sim.kernel_rates("zfp", rate).decompress_gbps);
      return row.decomp.total();
    });
    row.comp_std_ms = comp_stats.stddev() * 1e3;
    row.decomp_std_ms = decomp_stats.stddev() * 1e3;
    rows.push_back(row);
  }

  for (const char* which : {"compression", "decompression"}) {
    const bool comp = which[0] == 'c';
    std::printf("--- %s ---\n", which);
    std::printf("%8s %10s %10s %10s %10s %12s %10s\n", "bitrate", "init(ms)",
                "kernel(ms)", "memcpy(ms)", "free(ms)", "total(ms)", "std(ms)");
    for (const auto& row : rows) {
      const auto& t = comp ? row.comp : row.decomp;
      std::printf("%8.1f %10.3f %10.3f %10.3f %10.3f %12.3f %10.4f\n", row.bitrate,
                  t.init * 1e3, t.kernel * 1e3, t.memcpy * 1e3, t.free * 1e3,
                  t.total() * 1e3, comp ? row.comp_std_ms : row.decomp_std_ms);
    }
    std::printf("\n");
    auto& plot = comp ? plot_c : plot_d;
    for (const auto* part : {"init", "kernel", "memcpy", "free", "total"}) {
      std::vector<double> xs, ys;
      for (const auto& row : rows) {
        const auto& t = comp ? row.comp : row.decomp;
        xs.push_back(row.bitrate);
        const double v = std::string(part) == "init"     ? t.init
                         : std::string(part) == "kernel" ? t.kernel
                         : std::string(part) == "memcpy" ? t.memcpy
                         : std::string(part) == "free"   ? t.free
                                                         : t.total();
        ys.push_back(v * 1e3);
      }
      plot.add_series({part, xs, ys, "", false});
    }
  }
  plot_c.save(bench::out_dir() + "/fig7a_compression_breakdown.svg");
  plot_d.save(bench::out_dir() + "/fig7b_decompression_breakdown.svg");

  // Stacked-bar rendering, matching the paper's Fig. 7 presentation.
  for (const bool comp : {true, false}) {
    foresight::SvgBarChart bars(
        comp ? "Fig 7a: compression breakdown (stacked)"
             : "Fig 7b: decompression breakdown (stacked)",
        "bitrate (bits/value)", "time (ms)");
    bars.set_segments({"init", "kernel", "memcpy", "free"});
    bars.add_hline(baseline_ms, "no-compression transfer");
    for (const auto& row : rows) {
      const auto& t = comp ? row.comp : row.decomp;
      bars.add_bar(strprintf("%.0f", row.bitrate),
                   {t.init * 1e3, t.kernel * 1e3, t.memcpy * 1e3, t.free * 1e3});
    }
    bars.save(bench::out_dir() +
              (comp ? "/fig7a_compression_bars.svg" : "/fig7b_decompression_bars.svg"));
  }

  std::printf(
      "Expected shapes (paper Fig. 7): total time grows with bitrate; memcpy (the\n"
      "PCIe move of the compressed stream) dominates the kernel; at practical\n"
      "bitrates the total stays below the no-compression transfer baseline.\n");
  std::printf("artifacts: %s/fig7{a,b}_*.svg\n", bench::out_dir().c_str());
  return 0;
}
