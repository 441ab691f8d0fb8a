#include <gtest/gtest.h>

#include "common/telemetry.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/optimizer.hpp"
#include "foresight/sweep.hpp"
#include "json/json.hpp"
#include "token_codec.hpp"

namespace cosmo::foresight {
namespace {

TEST(OptimizerGrid, PicksHighestRatioAmongAcceptable) {
  NyxConfig config;
  config.dim = 32;
  const auto data = generate_nyx(config);
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);

  std::map<std::string, std::vector<CompressorConfig>> candidates;
  candidates["velocity_x"] = {{"rate", 2.0}, {"rate", 4.0}, {"rate", 8.0}, {"rate", 16.0}};

  const auto result = optimize_grid_dataset(data, *codec, candidates, 0.01, 0.5);
  ASSERT_EQ(result.per_field.size(), 1u);
  const auto& choice = result.per_field[0];
  EXPECT_EQ(choice.field, "velocity_x");
  EXPECT_EQ(choice.candidates.size(), 4u);
  // 16 bits/value must be acceptable on a smooth field; the guideline then
  // guarantees the chosen config is the acceptable one with highest ratio.
  ASSERT_TRUE(choice.found);
  for (const auto& c : choice.candidates) {
    if (c.acceptable) {
      EXPECT_GE(choice.chosen.ratio, c.ratio);
    }
  }
  EXPECT_TRUE(choice.chosen.acceptable);
}

TEST(OptimizerGrid, RejectsWhenNothingAcceptable) {
  NyxConfig config;
  config.dim = 32;
  const auto data = generate_nyx(config);
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  // A fraction of a bit per value destroys the spectrum on density.
  candidates["baryon_density"] = {{"rate", 0.5}};
  const auto result = optimize_grid_dataset(data, *codec, candidates, 0.01, 0.5);
  ASSERT_EQ(result.per_field.size(), 1u);
  EXPECT_FALSE(result.per_field[0].found);
  EXPECT_FALSE(result.all_fields_ok);
}

TEST(OptimizerGrid, TighterToleranceRejectsMore) {
  NyxConfig config;
  config.dim = 32;
  const auto data = generate_nyx(config);
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  candidates["temperature"] = {{"rate", 2.0}, {"rate", 4.0}, {"rate", 8.0}};
  const auto loose = optimize_grid_dataset(data, *codec, candidates, 0.10, 0.5);
  const auto tight = optimize_grid_dataset(data, *codec, candidates, 0.0001, 0.5);
  auto count_ok = [](const OptimizationResult& r) {
    std::size_t n = 0;
    for (const auto& c : r.per_field[0].candidates) {
      if (c.acceptable) ++n;
    }
    return n;
  };
  EXPECT_GE(count_ok(loose), count_ok(tight));
}

TEST(OptimizerGrid, SkipsFieldsWithoutCandidates) {
  NyxConfig config;
  config.dim = 16;
  const auto data = generate_nyx(config);
  const auto codec = make_compressor("zfp-cpu");
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  candidates["temperature"] = {{"rate", 16.0}};
  const auto result = optimize_grid_dataset(data, *codec, candidates, 0.05, 0.5);
  EXPECT_EQ(result.per_field.size(), 1u);  // only temperature evaluated
}

TEST(OptimizerParticles, SelectsPositionAndVelocityBounds) {
  HaccConfig config;
  config.particles = 20000;
  config.halo_count = 12;
  const auto data = generate_hacc(config);
  const auto codec = make_compressor("sz-cpu");

  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 15;

  const std::vector<CompressorConfig> pos_candidates = {
      {"abs", 0.001}, {"abs", 0.005}, {"abs", 3.0}};
  const std::vector<CompressorConfig> vel_candidates = {{"pw_rel", 0.01}, {"pw_rel", 0.25}};

  const auto result = optimize_particle_dataset(data, *codec, pos_candidates,
                                                vel_candidates, fof_params, 0.1, 0.1);
  ASSERT_EQ(result.per_field.size(), 2u);
  const auto& pos = result.per_field[0];
  EXPECT_EQ(pos.field, "position");
  ASSERT_TRUE(pos.found);
  // abs=3.0 (larger than the linking length!) must not be the acceptable
  // winner unless it really preserved halos; the tight bounds must pass.
  EXPECT_TRUE(pos.candidates[0].acceptable);
  const auto& vel = result.per_field[1];
  EXPECT_EQ(vel.field, "velocity");
  ASSERT_TRUE(vel.found);
  EXPECT_GT(result.overall_ratio, 1.0);
  EXPECT_TRUE(result.all_fields_ok);
}

TEST(OptimizerParticles, LoosePositionBoundBreaksHalos) {
  HaccConfig config;
  config.particles = 15000;
  config.halo_count = 10;
  const auto data = generate_hacc(config);
  const auto codec = make_compressor("sz-cpu");
  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 15;
  // A position error of 5 (5x the linking length) scrambles membership.
  const auto result = optimize_particle_dataset(
      data, *codec, {{"abs", 5.0}}, {{"pw_rel", 0.1}}, fof_params, 0.05, 0.5);
  EXPECT_FALSE(result.per_field[0].found);
  EXPECT_FALSE(result.all_fields_ok);
}

TEST(Optimizer, FormatsReadableReport) {
  OptimizationResult result;
  FieldChoice choice;
  choice.field = "baryon_density";
  choice.found = true;
  choice.chosen.config = {"abs", 0.2};
  choice.chosen.ratio = 15.4;
  choice.chosen.psnr_db = 95.0;
  choice.chosen.acceptable = true;
  choice.chosen.metric_deviation = 0.004;
  CandidateOutcome rejected;
  rejected.config = {"abs", 1.0};
  rejected.ratio = 20.0;
  rejected.psnr_db = 102.45;
  rejected.acceptable = false;
  rejected.metric_deviation = 0.02;
  CandidateOutcome pruned;
  pruned.config = {"abs", 0.05};
  pruned.ratio = 8.0;
  pruned.acceptable = true;
  pruned.status = "pruned";
  pruned.predicted = true;
  choice.candidates = {choice.chosen, rejected, pruned};
  result.per_field.push_back(choice);
  result.overall_ratio = 15.4;
  result.all_fields_ok = true;
  const std::string report = format_optimization(result);
  EXPECT_NE(report.find("baryon_density"), std::string::npos);
  EXPECT_NE(report.find("abs=0.2"), std::string::npos);
  EXPECT_NE(report.find("15.4"), std::string::npos);
  EXPECT_NE(report.find("reject"), std::string::npos);
  EXPECT_NE(report.find("(pruned, predicted)"), std::string::npos);
  EXPECT_NE(report.find("full evals"), std::string::npos);
}

// ---------- guided search ----------

/// Shared fixture data: a small Nyx snapshot with a dense abs lattice on
/// two fields (dense lattices are where guided search pays off).
struct GuidedGridCase {
  io::Container data;
  std::unique_ptr<Compressor> codec;
  std::map<std::string, std::vector<CompressorConfig>> candidates;

  GuidedGridCase() {
    NyxConfig config;
    config.dim = 16;
    data = generate_nyx(config);
    codec = make_compressor("sz-cpu");
    for (const char* name : {"temperature", "velocity_x"}) {
      candidates[name] = configs_for_axis({.mode = "abs",
                                           .kind = SweepAxis::Kind::kRangeFractions,
                                           .lo = 2e-6,
                                           .hi = 2e-2,
                                           .count = 16},
                                          data.find(name).field);
    }
  }
};

TEST(OptimizerGuided, MatchesExhaustiveChoiceOnGrid) {
  GuidedGridCase c;
  const auto exhaustive = optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5);
  for (const std::size_t threads : {1u, 4u}) {
    OptimizerOptions options;
    options.search = SearchMode::kGuided;
    options.threads = threads;
    const auto guided =
        optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5, options);
    ASSERT_EQ(guided.per_field.size(), exhaustive.per_field.size());
    for (std::size_t i = 0; i < guided.per_field.size(); ++i) {
      const auto& ge = guided.per_field[i];
      const auto& ee = exhaustive.per_field[i];
      EXPECT_EQ(ge.field, ee.field);
      ASSERT_EQ(ge.found, ee.found) << ge.field;
      if (!ee.found) continue;
      EXPECT_EQ(ge.chosen.config.mode, ee.chosen.config.mode) << ge.field;
      EXPECT_DOUBLE_EQ(ge.chosen.config.value, ee.chosen.config.value) << ge.field;
      EXPECT_DOUBLE_EQ(ge.chosen.ratio, ee.chosen.ratio) << ge.field;
      EXPECT_EQ(ge.chosen.status, "evaluated");
      EXPECT_FALSE(ge.chosen.predicted);
    }
    EXPECT_LT(guided.stats.full_evals, exhaustive.stats.full_evals);
  }
}

/// Candidate rows are slotted by index, and every kernel and analysis is
/// thread-count invariant: two searches agree exactly on every row, every
/// choice and every counter, whatever their worker counts.
void expect_identical_searches(const OptimizationResult& a, const OptimizationResult& b) {
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.full_evals, b.stats.full_evals);
  EXPECT_EQ(a.stats.probes, b.stats.probes);
  EXPECT_EQ(a.stats.pruned, b.stats.pruned);
  EXPECT_EQ(a.stats.skipped, b.stats.skipped);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.rate_estimates, b.stats.rate_estimates);
  EXPECT_EQ(a.stats.baseline_cache_hits, b.stats.baseline_cache_hits);
  EXPECT_EQ(a.overall_ratio, b.overall_ratio);
  EXPECT_EQ(a.all_fields_ok, b.all_fields_ok);
  ASSERT_EQ(a.per_field.size(), b.per_field.size());
  for (std::size_t i = 0; i < a.per_field.size(); ++i) {
    const auto& fa = a.per_field[i];
    const auto& fb = b.per_field[i];
    EXPECT_EQ(fa.field, fb.field);
    EXPECT_EQ(fa.found, fb.found);
    EXPECT_EQ(fa.chosen.config.label(), fb.chosen.config.label());
    ASSERT_EQ(fa.candidates.size(), fb.candidates.size());
    for (std::size_t j = 0; j < fa.candidates.size(); ++j) {
      const CandidateOutcome& ca = fa.candidates[j];
      const CandidateOutcome& cb = fb.candidates[j];
      const std::string where = fa.field + " row " + std::to_string(j);
      EXPECT_EQ(ca.config.mode, cb.config.mode) << where;
      EXPECT_EQ(ca.config.value, cb.config.value) << where;
      EXPECT_EQ(ca.status, cb.status) << where;
      EXPECT_EQ(ca.acceptable, cb.acceptable) << where;
      EXPECT_EQ(ca.predicted, cb.predicted) << where;
      EXPECT_EQ(ca.ratio, cb.ratio) << where;
      EXPECT_EQ(ca.psnr_db, cb.psnr_db) << where;
      EXPECT_EQ(ca.metric_deviation, cb.metric_deviation) << where;
    }
  }
}

TEST(OptimizerGuided, DeterministicAcrossThreadCounts) {
  GuidedGridCase c;
  OptimizerOptions serial;
  serial.search = SearchMode::kGuided;
  serial.threads = 1;
  OptimizerOptions parallel = serial;
  parallel.threads = 4;
  const auto a = optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5, serial);
  const auto b =
      optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5, parallel);
  expect_identical_searches(a, b);

  // The HACC twin: FoF and the codec kernels also thread inside each
  // evaluation.
  HaccConfig config;
  config.particles = 12000;
  config.halo_count = 10;
  const auto hacc = generate_hacc(config);
  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 15;
  const auto position = configs_for_axis(
      {.mode = "abs", .kind = SweepAxis::Kind::kRangeFractions, .lo = 4e-6, .hi = 4e-3, .count = 8},
      hacc.find("x").field);
  const auto velocity = configs_for_axis(
      {.mode = "pw_rel", .kind = SweepAxis::Kind::kLogValues, .lo = 1e-3, .hi = 2e-1, .count = 6},
      hacc.find("vx").field);
  const auto pa = optimize_particle_dataset(hacc, *c.codec, position, velocity, fof_params,
                                            0.1, 0.1, serial);
  const auto pb = optimize_particle_dataset(hacc, *c.codec, position, velocity, fof_params,
                                            0.1, 0.1, parallel);
  expect_identical_searches(pa, pb);
}

TEST(OptimizerGuided, MatchesExhaustiveChoiceOnParticles) {
  HaccConfig config;
  config.particles = 12000;
  config.halo_count = 10;
  const auto data = generate_hacc(config);
  const auto codec = make_compressor("sz-cpu");
  analysis::FofParams fof_params;
  fof_params.linking_length = 1.0;
  fof_params.min_members = 15;
  const auto position = configs_for_axis(
      {.mode = "abs", .kind = SweepAxis::Kind::kRangeFractions, .lo = 4e-6, .hi = 4e-3, .count = 8},
      data.find("x").field);
  const auto velocity = configs_for_axis(
      {.mode = "pw_rel", .kind = SweepAxis::Kind::kLogValues, .lo = 1e-3, .hi = 2e-1, .count = 6},
      data.find("vx").field);

  const auto exhaustive = optimize_particle_dataset(data, *codec, position, velocity,
                                                    fof_params, 0.1, 0.1);
  for (const std::size_t threads : {1u, 4u}) {
    OptimizerOptions options;
    options.search = SearchMode::kGuided;
    options.threads = threads;
    const auto guided = optimize_particle_dataset(data, *codec, position, velocity,
                                                  fof_params, 0.1, 0.1, options);
    ASSERT_EQ(guided.per_field.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_EQ(guided.per_field[i].found, exhaustive.per_field[i].found);
      if (!exhaustive.per_field[i].found) continue;
      EXPECT_DOUBLE_EQ(guided.per_field[i].chosen.config.value,
                       exhaustive.per_field[i].chosen.config.value)
          << guided.per_field[i].field;
      EXPECT_DOUBLE_EQ(guided.per_field[i].chosen.ratio,
                       exhaustive.per_field[i].chosen.ratio);
    }
    EXPECT_LT(guided.stats.full_evals, exhaustive.stats.full_evals);
  }
}

TEST(OptimizerGuided, StatsAccountForEveryCandidate) {
  GuidedGridCase c;
  OptimizerOptions options;
  options.search = SearchMode::kGuided;
  const auto r = optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5, options);
  EXPECT_EQ(r.stats.candidates, 32u);  // 2 fields x 16 bounds
  EXPECT_GT(r.stats.full_evals, 0u);
  EXPECT_GT(r.stats.pruned, 0u);
  EXPECT_GE(r.stats.probes, 4u);  // >= 2 endpoints per field
  EXPECT_LE(r.stats.probes, r.stats.full_evals);
  // Every candidate row is exactly one of: really evaluated, surrogate
  // pruned, capability skipped, or failed.
  EXPECT_EQ(r.stats.full_evals + r.stats.pruned + r.stats.skipped + r.stats.failed,
            r.stats.candidates);
  EXPECT_GT(r.stats.wall_seconds, 0.0);
  // sz-cpu is abs-rate-estimable, so pruned rows get estimator ratios.
  EXPECT_GT(r.stats.rate_estimates, 0u);
  // P(k) baselines are computed once per field, then served from cache.
  EXPECT_GT(r.stats.baseline_cache_hits, 0u);
  for (const auto& field : r.per_field) {
    for (const auto& cand : field.candidates) {
      EXPECT_TRUE(cand.status == "evaluated" || cand.status == "pruned" ||
                  cand.status == "skipped" || cand.status == "failed")
          << cand.status;
      if (cand.status == "pruned") {
        EXPECT_TRUE(cand.predicted);
      }
    }
  }
}

TEST(Optimizer, RecordsCapabilitySkippedCandidates) {
  NyxConfig config;
  config.dim = 16;
  const auto data = generate_nyx(config);
  const auto codec = make_compressor("sz-cpu");  // abs + pw_rel only
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  candidates["temperature"] = {
      {"rate", 8.0}, {"abs", 50.0}, {"rate", 4.0}, {"abs", 500.0}};
  for (const SearchMode mode : {SearchMode::kExhaustive, SearchMode::kGuided}) {
    OptimizerOptions options;
    options.search = mode;
    const auto r = optimize_grid_dataset(data, *codec, candidates, 0.05, 0.5, options);
    ASSERT_EQ(r.per_field.size(), 1u);
    const auto& rows = r.per_field[0].candidates;
    ASSERT_EQ(rows.size(), 4u);  // skipped rows stay in place, input order
    EXPECT_EQ(rows[0].status, "skipped");
    EXPECT_EQ(rows[2].status, "skipped");
    EXPECT_NE(rows[1].status, "skipped");
    EXPECT_NE(rows[3].status, "skipped");
    EXPECT_EQ(r.stats.skipped, 2u);
    const std::string report = format_optimization(r);
    EXPECT_NE(report.find("skipped (mode unsupported)"), std::string::npos);
  }
}

TEST(Optimizer, PublishesMetricsCounters) {
  auto& registry = telemetry::MetricsRegistry::instance();
  registry.counter("optimizer.runs").reset();
  registry.counter("optimizer.full_evals").reset();
  registry.counter("optimizer.pruned_candidates").reset();

  GuidedGridCase c;
  OptimizerOptions options;
  options.search = SearchMode::kGuided;
  const auto r = optimize_grid_dataset(c.data, *c.codec, c.candidates, 0.01, 0.5, options);

  EXPECT_EQ(registry.counter("optimizer.runs").value(), 1u);
  EXPECT_EQ(registry.counter("optimizer.full_evals").value(), r.stats.full_evals);
  EXPECT_EQ(registry.counter("optimizer.pruned_candidates").value(), r.stats.pruned);
  // The counters ride along in the registry's JSON export (what the
  // pipeline's --metrics-out writes).
  const json::Value doc = json::parse(registry.to_json());
  const auto& counters = doc.at("counters");
  EXPECT_GE(counters.at("optimizer.full_evals").as_number(),
            static_cast<double>(r.stats.full_evals));
  EXPECT_TRUE(counters.contains("optimizer.probes"));
  EXPECT_TRUE(counters.contains("optimizer.baseline_cache_hits"));
}

TEST(Optimizer, GuidedContinuesPastFailedCandidates) {
  GuidedGridCase c;
  // Poison one candidate with an invalid value so its evaluation throws.
  auto candidates = c.candidates;
  candidates["temperature"][3].value = -1.0;
  OptimizerOptions options;
  options.search = SearchMode::kGuided;
  options.on_error = OnError::kContinue;
  const auto r = optimize_grid_dataset(c.data, *c.codec, candidates, 0.01, 0.5, options);
  ASSERT_EQ(r.per_field.size(), 2u);
  // The search still lands on an acceptable choice for both fields, and the
  // poisoned candidate is recorded as a failed row rather than rethrown.
  EXPECT_TRUE(r.per_field[0].found);
  EXPECT_TRUE(r.per_field[1].found);
  EXPECT_GE(r.stats.failed, 1u);
}

TEST(Optimizer, ContinueNeverTurnsCancellationIntoAFailedCandidate) {
  NyxConfig config;
  config.dim = 16;
  const auto data = generate_nyx(config);
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  candidates["temperature"] = {{"rate", 4.0}, {"rate", 8.0}, {"rate", 16.0}};
  for (const bool deadline : {false, true}) {
    TokenCheckingCompressor codec(make_compressor("zfp-cpu"), stopped_token(deadline));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      OptimizerOptions options;
      options.threads = threads;
      options.on_error = OnError::kContinue;
      if (deadline) {
        EXPECT_THROW(optimize_grid_dataset(data, codec, candidates, 0.01, 0.5, options),
                     DeadlineExceededError);
      } else {
        EXPECT_THROW(optimize_grid_dataset(data, codec, candidates, 0.01, 0.5, options),
                     CancelledError);
      }
    }
  }
}

TEST(Optimizer, ParseSearchMode) {
  EXPECT_EQ(parse_search_mode("exhaustive"), SearchMode::kExhaustive);
  EXPECT_EQ(parse_search_mode("guided"), SearchMode::kGuided);
  EXPECT_THROW(parse_search_mode("smart"), InvalidArgument);
  EXPECT_EQ(search_mode_label(SearchMode::kGuided), "guided");
  EXPECT_EQ(search_mode_label(SearchMode::kExhaustive), "exhaustive");
}

}  // namespace
}  // namespace cosmo::foresight
