#include <gtest/gtest.h>

#include <algorithm>
#include <future>

#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"
#include "io/crc32.hpp"
#include "token_codec.hpp"

namespace cosmo::foresight {
namespace {

io::Container small_nyx() {
  NyxConfig config;
  config.dim = 16;
  return generate_nyx(config);
}

TEST(CBench, RunOnePopulatesEveryMetric) {
  const auto data = small_nyx();
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  CBench bench({.keep_reconstructed = true, .dataset_name = "nyx"});
  const CBenchResult r =
      bench.run_one(data.find("baryon_density").field, *codec, {"rate", 8.0});
  EXPECT_EQ(r.dataset, "nyx");
  EXPECT_EQ(r.field, "baryon_density");
  EXPECT_EQ(r.compressor, "cuzfp");
  EXPECT_GT(r.ratio, 3.0);
  EXPECT_NEAR(r.bit_rate, 8.0, 1.0);
  EXPECT_GT(r.distortion.psnr_db, 10.0);
  EXPECT_GT(r.compress_gbps, 0.0);
  EXPECT_GT(r.decompress_gbps, 0.0);
  EXPECT_TRUE(r.compress.has_gpu_timing);
  EXPECT_EQ(r.reconstructed.size(), data.find("baryon_density").field.data.size());
}

TEST(CBench, DropReconstructedWhenNotRequested) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench({.keep_reconstructed = false, .dataset_name = "nyx"});
  const CBenchResult r =
      bench.run_one(data.find("temperature").field, *codec, {"rate", 8.0});
  EXPECT_TRUE(r.reconstructed.empty());
}

TEST(CBench, SweepCoversFieldsTimesConfigs) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench;
  const std::vector<CompressorConfig> configs = {{"rate", 4.0}, {"rate", 8.0}};
  const auto results = bench.sweep(data, *codec, configs);
  EXPECT_EQ(results.size(), 6u * 2u);
}

TEST(CBench, SweepFieldFilter) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench;
  const auto results =
      bench.sweep(data, *codec, {{"rate", 8.0}},
                  [](const std::string& name) { return name == "temperature"; });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].field, "temperature");
}

TEST(CBench, OverallRatioIsByteWeighted) {
  std::vector<CBenchResult> results(2);
  results[0].original_bytes = 1000;
  results[0].compressed_bytes = 100;  // 10x
  results[1].original_bytes = 1000;
  results[1].compressed_bytes = 400;  // 2.5x
  EXPECT_DOUBLE_EQ(CBench::overall_ratio(results), 4.0);  // 2000/500
  EXPECT_THROW(CBench::overall_ratio({}), InvalidArgument);
}

TEST(CBench, FormatResultsMarksGpuSzThroughputNA) {
  const auto data = small_nyx();
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto gpu_sz = make_compressor("gpu-sz", &sim);
  CBench bench;
  const auto results = bench.sweep(data, *gpu_sz, {{"abs", 1.0}},
                                   [](const std::string& name) {
                                     return name == "dark_matter_density";
                                   });
  const std::string table = format_results(results);
  // The paper excludes GPU-SZ throughput: the table prints N/A.
  EXPECT_NE(table.find("N/A"), std::string::npos);
  EXPECT_NE(table.find("gpu-sz"), std::string::npos);
}

TEST(CBench, HigherRateGivesHigherPsnrInResults) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  CBench bench;
  const Field& f = data.find("velocity_x").field;
  const auto low = bench.run_one(f, *codec, {"rate", 4.0});
  const auto high = bench.run_one(f, *codec, {"rate", 16.0});
  EXPECT_GT(high.distortion.psnr_db, low.distortion.psnr_db);
  EXPECT_LT(high.ratio, low.ratio);
}

TEST(CBench, ContinueNeverTurnsCancellationIntoAFailedRow) {
  const auto data = small_nyx();
  for (const bool deadline : {false, true}) {
    TokenCheckingCompressor codec(make_compressor("zfp-cpu"), stopped_token(deadline));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const CBench bench({.threads = threads, .on_error = OnError::kContinue});
      if (deadline) {
        EXPECT_THROW(bench.sweep(data, codec, {{"rate", 8.0}}), DeadlineExceededError);
        EXPECT_THROW(bench.run_one(data.find("temperature").field, codec, {"rate", 8.0}),
                     DeadlineExceededError);
      } else {
        EXPECT_THROW(bench.sweep(data, codec, {{"rate", 8.0}}), CancelledError);
        EXPECT_THROW(bench.run_one(data.find("temperature").field, codec, {"rate", 8.0}),
                     CancelledError);
      }
    }
  }
}

TEST(CBench, ContinueRecordsOtherErrorsAsFailedRowsInPlace) {
  const auto data = small_nyx();
  const auto codec = make_compressor("sz-cpu");  // no "rate" mode
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CBench bench({.threads = threads, .on_error = OnError::kContinue});
    const auto results = bench.sweep(data, *codec, {{"abs", 0.5}, {"rate", 8.0}});
    ASSERT_EQ(results.size(), 12u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, i % 2 == 0 ? "ok" : "failed") << i;
      EXPECT_EQ(results[i].config.mode, i % 2 == 0 ? "abs" : "rate") << i;
    }
    const CBench abort_bench({.threads = threads});
    EXPECT_THROW(abort_bench.sweep(data, *codec, {{"abs", 0.5}, {"rate", 8.0}}),
                 InvalidArgument);
  }
}

TEST(CBench, RunSessionReportsTheCleanStreamCrc) {
  const auto data = small_nyx();
  const Field& field = data.find("temperature").field;
  const auto codec = make_compressor("zfp-cpu");
  const auto session = codec->open_session();
  const CompressResult reference = session->compress(field, {"rate", 8.0});
  const CBenchResult r = CBench().run_session(field, "zfp-cpu", *session, {"rate", 8.0});
  EXPECT_EQ(r.stream_crc32, crc32(reference.bytes.data(), reference.bytes.size()));
  EXPECT_FALSE(r.corrupted);
  // A stopped token ends the job at its first stage boundary.
  const CancelToken token = stopped_token(false);
  EXPECT_THROW((void)CBench().run_session(field, "zfp-cpu", *session, {"rate", 8.0}, &token),
               CancelledError);
}

/// A run issued from inside a task of its own pool must finish: here both
/// workers of a 2-thread pool issue one, so the tasks those runs submit can
/// only start if the waiting callers help drain the queue. Every slot must
/// hold what a serial run puts there.
TEST(JobScheduler, RunFromInsideItsOwnPoolCompletes) {
  const auto data = small_nyx();
  const Field& field = data.find("temperature").field;
  const auto codec = make_compressor("zfp-cpu");
  ASSERT_TRUE(codec->concurrent_sessions_safe());
  const std::vector<CompressorConfig> configs = {{"rate", 2.0}, {"rate", 4.0},  {"rate", 6.0},
                                                 {"rate", 8.0}, {"rate", 12.0}, {"rate", 16.0}};
  const CBench bench;
  const auto run_all = [&](ThreadPool* pool) {
    std::vector<std::uint32_t> crcs(configs.size(), 0);
    JobScheduler(*codec, pool, OnError::kAbort, "sweep.worker")
        .run(
            configs.size(),
            [&](std::size_t i, CodecSession& session, CompressResult& c, DecompressResult& d) {
              crcs[i] = bench.run_session(field, "zfp-cpu", session, configs[i], c, d).stream_crc32;
            },
            [](std::size_t, const Error&) {});
    return crcs;
  };
  const std::vector<std::uint32_t> serial = run_all(nullptr);
  ASSERT_EQ(std::count(serial.begin(), serial.end(), 0u), 0);

  ThreadPool pool(2);
  std::vector<std::vector<std::uint32_t>> nested(pool.size());
  std::vector<std::future<void>> outer;
  for (std::size_t k = 0; k < nested.size(); ++k) {
    outer.push_back(pool.submit([&, k] { nested[k] = run_all(&pool); }));
  }
  for (auto& f : outer) f.get();
  for (const auto& crcs : nested) EXPECT_EQ(crcs, serial);
}

}  // namespace
}  // namespace cosmo::foresight
