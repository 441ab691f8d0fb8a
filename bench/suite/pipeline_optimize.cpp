/// \file pipeline_optimize.cpp
/// \brief pipeline-optimize: the paper's time to a best-fit configuration
/// (Section V-D), entered through the JSON front-end.
///
/// Each op is one repetition: run_pipeline with only an optimizer stage on
/// a Nyx grid (P(k) within 1 %) and then on a HACC snapshot (halo counts
/// and velocities within 5 %). The repetitions cycle, in seeded order,
/// through 12 fixed dataset pairs, so one run averages over realizations
/// whose chosen configs, and with them the time and ratio, differ.
#include "common/error.hpp"
#include "foresight/pipeline.hpp"
#include "suite.hpp"

namespace fbench {
namespace {

namespace json = cosmo::json;

constexpr double kThreads = 4;
constexpr std::size_t kDatasets = 12;

/// The HACC position lattice: the default one, refined between 0.025 and
/// 0.25 so a realization's choice moves in small steps, not tenfold jumps.
constexpr const char* kPositionCandidates =
    R"([{"mode": "abs", "value": 0.001}, {"mode": "abs", "value": 0.005},
        {"mode": "abs", "value": 0.025}, {"mode": "abs", "value": 0.05},
        {"mode": "abs", "value": 0.1}, {"mode": "abs", "value": 0.15},
        {"mode": "abs", "value": 0.2}, {"mode": "abs", "value": 0.25}])";

class PipelineOptimize final : public Workload {
 public:
  PipelineOptimize(const Options& options, Checks& checks) : opt_(options), checks_(checks) {}

  void setup() override {
    const double dim = opt_.smoke ? 16 : 32;
    const double particles = opt_.smoke ? 4000 : 20000;
    // The synthesizer sizes halos by mass, not by particle count: at this
    // particle count a few hundred halos would put thousands of particles
    // inside a 2-unit radius, and FoF time and memory (quadratic inside a
    // cell) would hinge on whether one realization drew such a clump. With
    // five mass draws per particle no halo gets more than a few hundred.
    const double halos = 5 * particles;
    datasets_.clear();
    const std::size_t count = opt_.smoke ? 2 : kDatasets;
    for (std::size_t d = 0; d < count; ++d) {
      json::Object nyx{{"type", "nyx"}, {"dim", dim},
                       {"seed", static_cast<double>(dataset_seed(kCorpusSeed, 10 + d))}};
      json::Object hacc{{"type", "hacc"}, {"particles", particles}, {"halo_count", halos},
                        {"seed", static_cast<double>(dataset_seed(kCorpusSeed, 100 + d))}};
      Dataset ds;
      ds.nyx = config(std::move(nyx), {{"tolerance", 0.01}});
      ds.hacc = config(std::move(hacc), {{"halo_tolerance", 0.05},
                                         {"velocity_tolerance", 0.05},
                                         {"position_candidates", json::parse(kPositionCandidates)}});
      ds.nyx_bytes = 6 * 4 * dim * dim * dim;
      ds.hacc_bytes = 6 * 4 * particles;
      datasets_.push_back(std::move(ds));
    }
    order_ = seeded_order(count, derive_seed(opt_.seed, 4));
    Measurement warm;
    repetition(datasets_[order_[0]], warm);
  }

  /// Whole cycles through the datasets, so every run holds the same mix.
  Measurement measure(double seconds, Trace& /*trace*/) override {
    Measurement m;
    stats_ = {};
    const Clock::time_point start = Clock::now();
    double cycle_seconds = 0.0;
    do {
      const Clock::time_point cycle_start = Clock::now();
      for (const std::size_t d : order_) repetition(datasets_[d], m);
      cycle_seconds = since(cycle_start);
    } while (another_cycle(start, cycle_seconds, seconds));
    // The chosen configs, and so the ratio, are the same on every visit.
    for (const Dataset& d : datasets_) {
      m.raw_bytes += d.nyx_bytes + d.hacc_bytes;
      m.compressed_bytes += d.compressed;
    }
    // Every repetition configures the same number of raw bytes.
    const Dataset& any = datasets_.front();
    m.throughput_mb_s = (any.nyx_bytes + any.hacc_bytes) / median(m.op_seconds) / 1e6;
    const double reps = static_cast<double>(m.op_seconds.size());
    m.layer["optimizer.full_evals"] = stats_.full_evals / reps;
    m.layer["optimizer.probes"] = stats_.probes / reps;
    m.layer["optimizer.pruned_candidates"] = stats_.pruned / reps;
    m.layer["optimizer.baseline_cache_hits"] = stats_.baseline_cache_hits / reps;
    m.layer["optimizer.eval_fraction"] =
        static_cast<double>(stats_.full_evals) / static_cast<double>(stats_.candidates);
    m.detail["datasets"] = datasets_.size();
    return m;
  }

  void from_trace(const TraceReport& report, LayerValues& layer) override {
    const auto busy = [&](const char* name) {
      const auto it = report.totals.find(name);
      return it == report.totals.end() ? 0.0 : it->second.busy_s;
    };
    const double stage = busy("optimizer.grid") + busy("optimizer.particles");
    if (stage > 0.0) layer["optimizer.worker_utilization"] = busy("optimizer.worker") / (kThreads * stage);
  }

  [[nodiscard]] std::size_t working_set_bytes() const override {
    double bytes = 0.0;
    for (const Dataset& d : datasets_) bytes += d.nyx_bytes + d.hacc_bytes;
    return static_cast<std::size_t>(bytes);
  }

  /// A run holds about 60 repetitions: fifteen beyond p75, too few beyond
  /// p90.
  [[nodiscard]] double tail_quantile() const override { return 0.75; }

 private:
  struct Dataset {
    json::Value nyx;
    json::Value hacc;
    double nyx_bytes = 0.0;
    double hacc_bytes = 0.0;
    std::string choices;      ///< configs picked on the first visit
    double compressed = 0.0;  ///< and their compressed bytes
  };

  json::Value config(json::Object dataset, json::Object tolerances) const {
    json::Object optimizer{{"compressor", "sz-cpu"}, {"search", "guided"}, {"threads", kThreads}};
    for (auto& [k, v] : tolerances) optimizer[k] = std::move(v);
    return json::Object{{"output", opt_.work_dir + "/pipeline"},
                        {"dataset", std::move(dataset)},
                        {"runs", json::Array{}},
                        {"cinema", false},
                        {"optimizer", std::move(optimizer)}};
  }

  /// One op: the Nyx and the HACC best-fit search on one dataset pair.
  void repetition(Dataset& d, Measurement& m) {
    ++m.attempted;
    std::string choices;
    double compressed = 0.0;
    bool ok = true;
    const Clock::time_point start = Clock::now();
    const cosmo::telemetry::SpanScope op("op.pipeline.rep");
    for (const auto& [config, raw] : {std::pair{&d.nyx, d.nyx_bytes}, {&d.hacc, d.hacc_bytes}}) {
      cosmo::foresight::PipelineSummary summary;
      try {
        timed("bench.run_pipeline", [&] { summary = cosmo::foresight::run_pipeline(*config); });
      } catch (const cosmo::Error& e) {
        checks_.expect(false, std::string("run_pipeline threw: ") + e.what());
        ok = false;
        continue;
      }
      const std::string what = "pipeline on " + config->at("dataset").dump();
      const bool found = summary.optimization && summary.optimization->all_fields_ok;
      checks_.expect(summary.workflow_ok, what + ": workflow_ok is false");
      checks_.expect(found, what + ": not every field found an acceptable config");
      if (!summary.workflow_ok || !found) {
        ok = false;
        continue;
      }
      const auto& result = *summary.optimization;
      compressed += raw / result.overall_ratio;
      for (const auto& f : result.per_field) choices += f.field + "=" + f.chosen.config.label() + ";";
      stats_.candidates += result.stats.candidates;
      stats_.full_evals += result.stats.full_evals;
      stats_.probes += result.stats.probes;
      stats_.pruned += result.stats.pruned;
      stats_.baseline_cache_hits += result.stats.baseline_cache_hits;
    }
    const double seconds = since(start);
    if (!ok) {
      ++m.failed;
      return;
    }
    if (d.choices.empty()) {
      d.choices = choices;
      d.compressed = compressed;
    }
    checks_.expect(choices == d.choices, "repetition picked other configs: " + choices +
                                             " vs " + d.choices);
    m.op_seconds.push_back(seconds);
  }

  const Options& opt_;
  Checks& checks_;
  std::vector<Dataset> datasets_;
  std::vector<std::size_t> order_;
  cosmo::foresight::OptimizerStats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline_optimize(const Options& options, Checks& checks) {
  return std::make_unique<PipelineOptimize>(options, checks);
}

}  // namespace fbench
