#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "foresight/compressor.hpp"
#include "gpu/sim.hpp"
#include "gpu/specs.hpp"
#include "random/rng.hpp"
#include "zfp/zfp.hpp"

namespace cosmo::gpu {
namespace {

TEST(Specs, TableIHasSevenGpus) {
  const auto& catalog = device_catalog();
  ASSERT_EQ(catalog.size(), 7u);
  EXPECT_EQ(catalog[0].name, "Nvidia RTX 2080Ti");
  EXPECT_EQ(catalog[1].name, "Nvidia Tesla V100");
  EXPECT_EQ(catalog.back().architecture, "Kepler 2.0");
}

TEST(Specs, V100MatchesPaperRow) {
  const auto& v100 = find_device("V100");
  EXPECT_EQ(v100.shaders, 5120);
  EXPECT_DOUBLE_EQ(v100.memory_gb, 16.0);
  EXPECT_DOUBLE_EQ(v100.peak_fp32_tflops, 14.0);
  EXPECT_DOUBLE_EQ(v100.memory_bw_gbps, 900.0);
  EXPECT_EQ(v100.architecture, "Volta");
}

TEST(Specs, LookupIsCaseInsensitiveSubstring) {
  EXPECT_EQ(find_device("titan v").name, "Nvidia Titan V");
  EXPECT_EQ(find_device("2080").name, "Nvidia RTX 2080Ti");
  EXPECT_THROW(find_device("A100"), InvalidArgument);
}

TEST(Specs, FormatTable1MentionsEveryGpu) {
  const std::string table = format_table1();
  for (const auto& d : device_catalog()) {
    EXPECT_NE(table.find(d.name), std::string::npos) << d.name;
  }
}

TEST(Specs, EvaluationCpuIsXeon6148) {
  const CpuSpec cpu = evaluation_cpu();
  EXPECT_EQ(cpu.cores, 20);
  EXPECT_NE(cpu.name.find("6148"), std::string::npos);
}

TEST(Sim, MemoryAccounting) {
  GpuSimulator sim(find_device("V100"));
  const BufferId a = sim.alloc(1000);
  const BufferId b = sim.alloc(2000);
  EXPECT_EQ(sim.used_bytes(), 3000u);
  sim.free(a);
  EXPECT_EQ(sim.used_bytes(), 2000u);
  sim.free(b);
  EXPECT_EQ(sim.used_bytes(), 0u);
  EXPECT_THROW(sim.free(a), InvalidArgument);  // double free
}

TEST(Sim, OversubscriptionRejected) {
  GpuSimulator sim(find_device("V100"));  // 16 GB
  EXPECT_THROW(sim.alloc(20e9), OutOfMemoryError);
  const BufferId a = sim.alloc(10e9);
  EXPECT_THROW(sim.alloc(10e9), OutOfMemoryError);
  sim.free(a);
  EXPECT_NO_THROW(sim.alloc(10e9));
}

TEST(Sim, TransferTimeScalesWithBytes) {
  GpuSimulator sim(find_device("V100"));
  const double t1 = sim.transfer_seconds(100'000'000);
  const double t10 = sim.transfer_seconds(1'000'000'000);
  EXPECT_GT(t10, t1 * 8.0);
  EXPECT_LT(t10, t1 * 12.0);
  // 1 GB over ~12.5 GB/s PCIe: ~80 ms.
  EXPECT_NEAR(t10, 0.08, 0.02);
}

TEST(Sim, KernelRateDecreasesWithBitrate) {
  GpuSimulator sim(find_device("V100"));
  double prev = 1e300;
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double gbps = sim.kernel_rates("zfp", rate).compress_gbps;
    EXPECT_LT(gbps, prev);
    prev = gbps;
  }
}

TEST(Sim, KernelRatesOrderedByDeviceCapability) {
  // Fig. 9: newer / higher-bandwidth GPUs achieve higher kernel throughput.
  GpuSimulator v100(find_device("V100"));
  GpuSimulator p100(find_device("P100"));
  GpuSimulator k80(find_device("K80"));
  const double rate = 4.0;
  EXPECT_GT(v100.kernel_rates("zfp", rate).compress_gbps,
            p100.kernel_rates("zfp", rate).compress_gbps);
  EXPECT_GT(p100.kernel_rates("zfp", rate).compress_gbps,
            k80.kernel_rates("zfp", rate).compress_gbps);
}

TEST(Sim, SzPrototypeIsMuchSlowerThanZfp) {
  GpuSimulator sim(find_device("V100"));
  EXPECT_LT(sim.kernel_rates("sz", 0.0).compress_gbps,
            sim.kernel_rates("zfp", 8.0).compress_gbps / 2.0);
}

TEST(Sim, BreakdownComponentsArePositiveAndMemcpyDominatesKernel) {
  GpuSimulator sim(find_device("V100"));
  const std::uint64_t raw = 500'000'000;        // 500 MB field
  const std::uint64_t compressed = raw / 8;     // 8x ratio
  const TimingBreakdown t =
      sim.model_compression(raw, compressed, sim.kernel_rates("zfp", 4.0).compress_gbps);
  EXPECT_GT(t.init, 0.0);
  EXPECT_GT(t.kernel, 0.0);
  EXPECT_GT(t.memcpy, 0.0);
  EXPECT_GT(t.free, 0.0);
  EXPECT_DOUBLE_EQ(t.total(), t.init + t.kernel + t.memcpy + t.free);
  // Paper observation: "the compression kernel time on GPU is relatively
  // low compared to the data transfer time between GPU and CPU".
  EXPECT_GT(t.memcpy, t.kernel);
}

TEST(Sim, CompressionBeatsRawTransferBaseline) {
  GpuSimulator sim(find_device("V100"));
  const std::uint64_t raw = 500'000'000;
  const TimingBreakdown t =
      sim.model_compression(raw, raw / 10, sim.kernel_rates("zfp", 3.2).compress_gbps);
  EXPECT_LT(t.total(), sim.baseline_transfer_seconds(raw));
}

TEST(Sim, HigherBitrateMeansLongerTotalTime) {
  // Fig. 7: time grows with bitrate (more compressed bytes to move).
  GpuSimulator sim(find_device("V100"));
  const std::uint64_t raw = 100'000'000;
  double prev = 0.0;
  for (const double rate : {1.0, 4.0, 16.0}) {
    const std::uint64_t compressed = static_cast<std::uint64_t>(raw * rate / 32.0);
    const TimingBreakdown t =
        sim.model_compression(raw, compressed, sim.kernel_rates("zfp", rate).compress_gbps);
    EXPECT_GT(t.total(), prev);
    prev = t.total();
  }
}

TEST(Sim, MeasureWithWarmupCollectsStats) {
  GpuSimulator sim(find_device("V100"));
  int calls = 0;
  const RunningStats stats = measure_with_warmup([&] {
    ++calls;
    return sim.transfer_seconds(10'000'000);
  });
  EXPECT_EQ(calls, 20);  // 10 warmups + 10 measured
  EXPECT_EQ(stats.count(), 10u);
  EXPECT_GT(stats.mean(), 0.0);
  // "all the standard deviation values are relatively negligible".
  EXPECT_LT(stats.stddev() / stats.mean(), 0.05);
}

// The simulated-GPU codecs through their device sessions.

Field uniform_field(const Dims& dims, std::uint64_t seed, double lo, double hi) {
  Rng rng(seed);
  Field field("field", dims);
  for (auto& v : field.data) v = static_cast<float>(rng.uniform(lo, hi));
  return field;
}

TEST(DeviceCompressor, CuZfpRoundTripWithTiming) {
  GpuSimulator sim(find_device("V100"));
  const auto cuzfp = foresight::make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();
  const Dims dims = Dims::d3(16, 16, 16);
  const Field field = uniform_field(dims, 151, -10.0, 10.0);
  const auto c = session->compress(field, {"rate", 8.0});
  EXPECT_GT(sim.kernel_rates("zfp", 8.0).compress_gbps, 0.0);
  EXPECT_GT(c.telemetry.gpu_timing.kernel, 0.0);
  EXPECT_GT(c.telemetry.gpu_timing.total(), 0.0);
  const auto d = session->decompress(c);
  Dims stored;
  (void)zfp::decompress(c.bytes, &stored);
  EXPECT_EQ(stored, dims);
  EXPECT_EQ(d.values.size(), field.data.size());
  EXPECT_TRUE(c.throughput_reportable);
  EXPECT_TRUE(cuzfp->capabilities().throughput_reportable);
}

TEST(DeviceCompressor, GpuSzAbsRoundTripWithinBound) {
  GpuSimulator sim(find_device("V100"));
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();
  const Field field = uniform_field(Dims::d3(16, 16, 16), 152, 0.0, 100.0);
  const auto c = session->compress(field, {"abs", 0.5});
  const auto d = session->decompress(c);
  for (std::size_t i = 0; i < field.data.size(); ++i) {
    EXPECT_LE(std::fabs(d.values[i] - field.data[i]), 0.5 * (1 + 1e-9));
  }
  EXPECT_FALSE(c.throughput_reportable);
  EXPECT_FALSE(gpu_sz->capabilities().throughput_reportable);
}

TEST(DeviceCompressor, GpuSzPwrelDispatchOnDecompress) {
  GpuSimulator sim(find_device("V100"));
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();
  const Field field = uniform_field(Dims::d3(8, 8, 8), 153, 1.0, 1000.0);
  const auto c = session->compress(field, {"pw_rel", 0.05});
  const auto d = session->decompress(c);  // must auto-detect PW_REL stream
  for (std::size_t i = 0; i < field.data.size(); ++i) {
    EXPECT_LE(std::fabs(d.values[i] - field.data[i]) / field.data[i], 0.05 * (1 + 1e-6));
  }
}

TEST(DeviceCompressor, GpuSzRejects2d) {
  // 1-D fields are reshaped to 3-D before GPU-SZ (paper Sec. IV-B4); a 2-D
  // field has no such conversion and is rejected.
  GpuSimulator sim(find_device("V100"));
  const auto gpu_sz = foresight::make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();
  Field flat("flat", Dims::d2(8, 8));
  std::fill(flat.data.begin(), flat.data.end(), 1.0f);
  EXPECT_THROW((void)session->compress(flat, {"abs", 0.1}), InvalidArgument);
  Field line("line", Dims::d1(64));
  std::fill(line.data.begin(), line.data.end(), 1.0f);
  EXPECT_EQ(session->decompress(session->compress(line, {"abs", 0.1})).values.size(), 64u);
}

}  // namespace
}  // namespace cosmo::gpu
