#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/pipeline.hpp"
#include "foresight/sweep.hpp"

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

TEST(Pipeline, HaccFileDatasetGetsParticleSearchAndHaloAnalysis) {
  // Particle vs grid is decided from the data, so a HACC container loaded
  // from disk gets the same stages as a generated one.
  const std::string out_dir = temp_dir("pipeline_hacc_file");
  std::filesystem::create_directories(out_dir);
  {
    HaccConfig hacc;
    hacc.particles = 8000;
    hacc.halo_count = 8;
    io::save(generate_hacc(hacc), out_dir + "/snapshot.gio", io::Dialect::kGenericIo);
  }
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "file", "path": ")" + out_dir + R"(/snapshot.gio"},
    "runs": [
      {"compressor": "sz-cpu", "fields": ["x", "y", "z"],
       "configs": [{"mode": "abs", "value": 0.005}]}
    ],
    "analysis": {"halo_finder": true, "linking_length": 1.2, "min_members": 15},
    "optimizer": {"compressor": "sz-cpu", "linking_length": 1.2, "min_members": 15}
  })");
  const PipelineSummary summary = run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  ASSERT_TRUE(summary.optimization.has_value());
  ASSERT_EQ(summary.optimization->per_field.size(), 2u);
  EXPECT_EQ(summary.optimization->per_field[0].field, "position");
  EXPECT_EQ(summary.optimization->per_field[1].field, "velocity");
  ASSERT_EQ(summary.halo_deviation.size(), 1u);
  EXPECT_LT(summary.halo_deviation.begin()->second, 0.05);
  std::filesystem::remove_all(out_dir);
}

void expect_same_search(const OptimizationResult& direct, const OptimizationResult& via) {
  ASSERT_EQ(direct.per_field.size(), via.per_field.size());
  for (std::size_t i = 0; i < direct.per_field.size(); ++i) {
    const FieldChoice& a = direct.per_field[i];
    const FieldChoice& b = via.per_field[i];
    EXPECT_EQ(a.field, b.field);
    EXPECT_EQ(a.found, b.found) << a.field;
    EXPECT_EQ(a.chosen.config.label(), b.chosen.config.label()) << a.field;
    EXPECT_EQ(a.chosen.ratio, b.chosen.ratio) << a.field;
    EXPECT_EQ(a.candidates.size(), b.candidates.size()) << a.field;
  }
  EXPECT_EQ(direct.overall_ratio, via.overall_ratio);
  EXPECT_EQ(direct.all_fields_ok, via.all_fields_ok);
  EXPECT_EQ(direct.stats.candidates, via.stats.candidates);
  EXPECT_EQ(direct.stats.full_evals, via.stats.full_evals);
  EXPECT_EQ(direct.stats.probes, via.stats.probes);
  EXPECT_EQ(direct.stats.pruned, via.stats.pruned);
  EXPECT_EQ(direct.stats.skipped, via.stats.skipped);
  EXPECT_EQ(direct.stats.failed, via.stats.failed);
  EXPECT_EQ(direct.stats.rate_estimates, via.stats.rate_estimates);
  EXPECT_EQ(direct.stats.baseline_cache_hits, via.stats.baseline_cache_hits);
}

TEST(Pipeline, OptimizeDatasetMatchesTheKernelsWithTheDefaults) {
  const auto codec = make_compressor("sz-cpu");
  OptimizeSpec spec;
  spec.codec = "sz-cpu";

  const io::Container nyx = build_dataset(json::parse(R"({"type": "nyx", "dim": 16})"));
  std::map<std::string, std::vector<CompressorConfig>> grid;
  for (const auto& variable : nyx.variables) {
    grid[variable.field.name] = default_grid_candidates("sz-cpu", variable.field);
  }
  const auto nyx_via = optimize_dataset(nyx, *codec, spec);
  ASSERT_EQ(nyx_via.per_field.size(), 6u);
  expect_same_search(optimize_grid_dataset(nyx, *codec, grid, 0.01, 0.5), nyx_via);

  const io::Container hacc = build_dataset(
      json::parse(R"({"type": "hacc", "particles": 8000, "halo_count": 8})"));
  analysis::FofParams fof;
  fof.linking_length = 1.5;
  fof.min_members = 10;
  const auto& caps = codec->capabilities();
  const auto hacc_via = optimize_dataset(hacc, *codec, spec);
  ASSERT_EQ(hacc_via.per_field.size(), 2u);
  expect_same_search(
      optimize_particle_dataset(hacc, *codec, default_position_candidates(caps),
                                default_velocity_candidates(caps, hacc.find("vx").field),
                                fof, 0.05, 0.05),
      hacc_via);
}

TEST(Pipeline, UnknownDatasetTypeRejected) {
  const json::Value config = json::parse(R"({
    "dataset": {"type": "mystery"},
    "runs": []
  })");
  EXPECT_THROW(run_pipeline(config), InvalidArgument);
}

TEST(Pipeline, FailedOptimizerSearchFailsTheRun) {
  // No zfp-cpu config keeps P(k) within a zero tolerance: the search leaves
  // every field without an acceptable config, and the run fails the way
  // `foresight_cli optimize` does on the same search.
  const std::string out_dir = temp_dir("pipeline_failed_search");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 16},
    "runs": [],
    "optimizer": {"compressor": "zfp-cpu", "tolerance": 0}
  })");
  const PipelineSummary summary = run_pipeline(config);
  ASSERT_TRUE(summary.optimization.has_value());
  EXPECT_FALSE(summary.optimization->all_fields_ok);
  EXPECT_FALSE(summary.workflow_ok);
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, AbortRecordsEveryRowAndSkipsAnalysis) {
  // Under "abort" the failed cbench job fails the run and skips the jobs
  // that depend on the rows; the other cbench jobs still run and report.
  const std::string out_dir = temp_dir("pipeline_abort");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 8, "seed": 42},
    "runs": [
      {"compressor": "sz-cpu", "fields": ["baryon_density", "temperature"],
       "configs": [{"mode": "abs", "value": 1.0}, {"mode": "rate", "value": 8},
                   {"mode": "abs", "value": 0.5}]}
    ],
    "analysis": {"power_spectrum": true},
    "on_error": "abort"
  })");
  const PipelineSummary summary = run_pipeline(config);
  ASSERT_EQ(summary.results.size(), 6u);
  for (const auto& r : summary.results) {
    const std::string row = r.field + " " + r.config.label();
    if (r.config.mode == "rate") {
      EXPECT_EQ(r.status, "failed") << row;
      EXPECT_NE(r.error.find("unsupported mode 'rate'"), std::string::npos) << r.error;
    } else {
      EXPECT_EQ(r.status, "ok") << row << ": " << r.error;
      EXPECT_GT(r.compressed_bytes, 0u) << row;
    }
  }
  EXPECT_EQ(summary.failed_jobs, 2u);
  EXPECT_TRUE(summary.pk_deviation.empty());
  EXPECT_FALSE(summary.workflow_ok);
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, HaloFinderOnGridDataRejected) {
  const std::string out_dir = temp_dir("pipeline_halo_grid");
  const json::Value config = json::parse(R"({
    "output": ")" + out_dir + R"(",
    "dataset": {"type": "nyx", "dim": 8},
    "runs": [],
    "analysis": {"halo_finder": true}
  })");
  try {
    (void)run_pipeline(config);
    ADD_FAILURE() << "halo_finder on grid data was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("halo_finder"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(out_dir);
}

TEST(Pipeline, DatasetErrorsNameTheDataset) {
  // build_dataset serves the pipeline, the CLI and foresightd alike.
  for (const char* spec : {R"({"type": "bogus"})", R"({"dim": -1})"}) {
    try {
      (void)build_dataset(json::parse(spec));
      ADD_FAILURE() << spec << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("dataset: ", 0), 0u) << spec << ": " << what;
      EXPECT_EQ(what.find("pipeline"), std::string::npos) << spec << ": " << what;
    }
  }
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
        R"("optimizer": {"compressor": "zfp-cpu", "min_members": -1})",
        R"("optimizer": {"compressor": "zfp-cpu", "min_members": 2.5})",
        R"("analysis": {"min_members": -1})", R"("analysis": {"min_members": 2.5})",
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
