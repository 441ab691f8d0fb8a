#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cosmo/nyx_synth.hpp"
#include "foresight/pipeline.hpp"

namespace cosmo::foresight {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

json::Value nyx_config(const std::string& out_dir) {
  return json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 16, "seed": 42},
    "gpu": "Tesla V100",
    "runs": [
      {"compressor": "cuzfp", "fields": ["baryon_density", "velocity_x"],
       "configs": [{"mode": "rate", "value": 4}, {"mode": "rate", "value": 8}]},
      {"compressor": "gpu-sz", "fields": ["baryon_density"],
       "configs": [{"mode": "abs", "value": 1.0}]}
    ],
    "analysis": {"power_spectrum": true},
    "cinema": true
  })");
}

TEST(Pipeline, EndToEndNyxRun) {
  const std::string out_dir = temp_dir("pipeline_nyx");
  const PipelineSummary summary = run_pipeline(nyx_config(out_dir));
  EXPECT_TRUE(summary.workflow_ok);
  // 2 fields x 2 configs + 1 field x 1 config = 5 results.
  EXPECT_EQ(summary.results.size(), 5u);
  // Power spectrum deviations computed for every 3-D result.
  EXPECT_EQ(summary.pk_deviation.size(), 5u);
  for (const auto& [key, dev] : summary.pk_deviation) {
    EXPECT_GE(dev, 0.0) << key;
  }
  // Cinema artifacts on disk.
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/data.csv"));
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/rate_distortion.svg"));
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/index.html"));
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, HaccRunWithHaloAnalysis) {
  const std::string out_dir = temp_dir("pipeline_hacc");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "hacc", "particles": 8000, "seed": 7, "halo_count": 8},
    "gpu": "Tesla V100",
    "runs": [
      {"compressor": "sz-cpu", "fields": ["x", "y", "z"],
       "configs": [{"mode": "abs", "value": 0.005}]}
    ],
    "analysis": {"halo_finder": true, "linking_length": 1.2, "min_members": 15},
    "cinema": false
  })");
  const PipelineSummary summary = run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  EXPECT_EQ(summary.results.size(), 3u);
  ASSERT_EQ(summary.halo_deviation.size(), 1u);
  // Tiny position bound: halo structure preserved.
  EXPECT_LT(summary.halo_deviation.begin()->second, 0.05);
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, SsimAnalysisStage) {
  const std::string out_dir = temp_dir("pipeline_ssim");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 16},
    "runs": [
      {"compressor": "zfp-cpu", "fields": ["temperature"],
       "configs": [{"mode": "rate", "value": 4}, {"mode": "rate", "value": 16}]}
    ],
    "analysis": {"ssim": true}
  })");
  const PipelineSummary summary = run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  ASSERT_EQ(summary.ssim.size(), 2u);
  double low = 0.0, high = 0.0;
  for (const auto& [key, value] : summary.ssim) {
    if (key.find("rate=4") != std::string::npos) low = value;
    if (key.find("rate=16") != std::string::npos) high = value;
  }
  EXPECT_GT(high, low);  // more bits -> more structural similarity
  EXPECT_GT(high, 0.99);
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, DefaultsToAllFieldsWhenNoneListed) {
  const std::string out_dir = temp_dir("pipeline_allfields");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 16},
    "runs": [
      {"compressor": "zfp-cpu", "configs": [{"mode": "rate", "value": 8}]}
    ]
  })");
  const PipelineSummary summary = run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  EXPECT_EQ(summary.results.size(), 6u);  // all six Nyx fields
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, FileDatasetRoundTrip) {
  const std::string out_dir = temp_dir("pipeline_file");
  // First run generates and saves a dataset; second consumes it from disk.
  std::filesystem::create_directories(out_dir);
  {
    NyxConfig nyx;
    nyx.dim = 16;
    io::save(generate_nyx(nyx), out_dir + "/snapshot.h5l", io::Dialect::kHdf5Lite);
  }
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "file", "path": ")" + out_dir + R"(/snapshot.h5l"},
    "runs": [
      {"compressor": "zfp-cpu", "fields": ["temperature"],
       "configs": [{"mode": "rate", "value": 8}]}
    ]
  })");
  const PipelineSummary summary = run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].field, "temperature");
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, UnknownDatasetTypeRejected) {
  const json::Value config = json::parse(R"({
    "dataset": {"type": "mystery"},
    "runs": []
  })");
  EXPECT_THROW(run_pipeline(config), InvalidArgument);
}

TEST(Pipeline, CountKnobsMustBeNonNegativeIntegers) {
  const std::string out_dir = temp_dir("pipeline_knobs");
  const auto config_with = [&](const std::string& knob) {
    return json::parse(R"({
      "output": ")" + out_dir + R"(",
      "dataset": {"type": "nyx", "dim": 8, "seed": 42},
      "runs": [],
      )" + knob + "}");
  };
  for (const std::string knob :
       {R"("threads": -1)", R"("jobs": -1)", R"("threads": 1.5)",
        R"("optimizer": {"compressor": "zfp-cpu", "threads": -1})",
        R"("optimizer": {"compressor": "zfp-cpu", "probes": -1})",
        R"("telemetry": {"trace": true, "trace_capacity": -1})",
        R"("telemetry": {"trace": true, "trace_capacity": 1e12})",
        R"("faults": {"seed": -1})", R"("faults": {"gpu_transient_every": 2.5})",
        R"("faults": {"gpu_oom_every": -3})", R"("faults": {"io_failure_every": 5e9})"}) {
    EXPECT_THROW(run_pipeline(config_with(knob)), InvalidArgument) << knob;
  }
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, RunPipelineFileParsesJson) {
  const std::string out_dir = temp_dir("pipeline_jsonfile");
  std::filesystem::create_directories(out_dir);
  const std::string config_path = out_dir + "/config.json";
  {
    std::ofstream out(config_path);
    out << nyx_config(out_dir).dump(2);
  }
  const PipelineSummary summary = run_pipeline_file(config_path);
  EXPECT_TRUE(summary.workflow_ok);
  EXPECT_EQ(summary.results.size(), 5u);
  std::filesystem::remove_all(out_dir);
}

}  // namespace
}  // namespace cosmo::foresight
