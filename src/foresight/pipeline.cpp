#include "foresight/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>

#include "analysis/halo_stats.hpp"
#include "analysis/power_spectrum.hpp"
#include "analysis/ssim.hpp"
#include "common/fault.hpp"
#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cinema.hpp"
#include "foresight/pat.hpp"
#include "foresight/sweep.hpp"

namespace cosmo::foresight {

namespace {

/// A count-like JSON knob (\p fallback when absent) must be a non-negative
/// integer below \p limit — the CLI's rule for --threads — or InvalidArgument
/// prefixed with \p scope.
std::uint64_t count_knob(const json::Value& object, const std::string& key,
                         double fallback, double limit = 0x1p64,
                         const char* scope = "pipeline") {
  const double v = object.get(key, fallback);
  require(std::isfinite(v) && v >= 0 && v == std::floor(v) && v < limit,
          strprintf("%s: \"%s\" must be an integer in [0, %.0f)", scope, key.c_str(), limit));
  return static_cast<std::uint64_t>(v);
}

/// Spans in the trace ring at most: 2^24 records are 640 MiB.
constexpr double kMaxTraceCapacity = 0x1p24;

/// The FoF knobs "linking_length" and "min_members", over the optimizer's
/// defaults; the halo-finder analysis reads the same knobs.
analysis::FofParams parse_fof(const json::Value& object) {
  analysis::FofParams fof = OptimizeSpec{}.fof;
  fof.linking_length = object.get("linking_length", fof.linking_length);
  fof.min_members = count_knob(object, "min_members", static_cast<double>(fof.min_members));
  return fof;
}

/// The "optimizer" object (schema in pipeline.hpp) as an OptimizeSpec; an
/// absent key keeps the OptimizeSpec default.
OptimizeSpec parse_optimize_spec(const json::Value& object) {
  OptimizeSpec spec;
  OptimizerOptions& options = spec.options;
  spec.codec = object.at("compressor").as_string();
  options.search = parse_search_mode(object.get("search", search_mode_label(options.search)));
  options.probes = count_knob(object, "probes", static_cast<double>(options.probes));
  options.threads = count_knob(object, "threads", static_cast<double>(options.threads));
  spec.tolerance = object.get("tolerance", spec.tolerance);
  spec.k_fraction = object.get("k_fraction", spec.k_fraction);
  spec.halo_tolerance = object.get("halo_tolerance", spec.halo_tolerance);
  spec.velocity_tolerance = object.get("velocity_tolerance", spec.velocity_tolerance);
  spec.fof = parse_fof(object);
  const auto configs = [&object](const char* key) {
    return object.contains(key) ? parse_config_list(object.at(key))
                                : std::vector<CompressorConfig>{};
  };
  spec.candidates = configs("candidates");
  spec.position_candidates = configs("position_candidates");
  spec.velocity_candidates = configs("velocity_candidates");
  return spec;
}

}  // namespace

io::Container build_dataset(const json::Value& spec, std::uint64_t max_field_bytes,
                            ThreadPool* pool) {
  // Errors say "dataset:": the pipeline, the CLI and foresightd all call this.
  const std::string type = spec.get("type", std::string("nyx"));
  const auto knob = [&spec](const char* key, double fallback) {
    return count_knob(spec, key, fallback, 0x1p64, "dataset");
  };
  // One generated field's bytes, in double so an absurd extent cannot wrap.
  const auto require_fits = [&](double values) {
    require(values * sizeof(float) <= static_cast<double>(max_field_bytes),
            "dataset: a " + type + " field exceeds " + std::to_string(max_field_bytes) +
                " bytes");
  };
  if (type == "nyx") {
    NyxConfig config;
    config.dim = knob("dim", 64.0);
    config.seed = knob("seed", 42.0);
    const auto dim = static_cast<double>(config.dim);
    require_fits(dim * dim * dim);
    return generate_nyx(config, pool);
  }
  if (type == "hacc") {
    HaccConfig config;
    config.particles = knob("particles", 100000.0);
    config.seed = knob("seed", 7.0);
    config.halo_count = knob("halo_count", static_cast<double>(config.halo_count));
    require_fits(static_cast<double>(config.particles));
    return generate_hacc(config, nullptr, pool);
  }
  if (type == "file") {
    return io::load(spec.at("path").as_string());
  }
  throw InvalidArgument("dataset: unknown dataset type '" + type + "'");
}

std::optional<fault::Config> parse_faults(const json::Value& config) {
  if (!config.contains("faults")) return std::nullopt;
  const json::Value& f = config.at("faults");
  // A fault counter of 0 disables it; every value must fit its uint32_t.
  const auto every = [&f](const char* key) {
    return static_cast<std::uint32_t>(count_knob(f, key, 0.0, 0x1p32));
  };
  fault::Config c;
  c.seed = count_knob(f, "seed", static_cast<double>(c.seed));
  c.corrupt_probability = f.get("corrupt_probability", 0.0);
  c.corrupt_bit_flip = f.get("corrupt_bit_flip", true);
  c.corrupt_truncate = f.get("corrupt_truncate", true);
  c.corrupt_zero_run = f.get("corrupt_zero_run", true);
  c.gpu_transient_every = every("gpu_transient_every");
  c.gpu_transient_probability = f.get("gpu_transient_probability", 0.0);
  c.gpu_oom_every = every("gpu_oom_every");
  c.gpu_oom_probability = f.get("gpu_oom_probability", 0.0);
  c.io_failure_every = every("io_failure_every");
  c.io_failure_probability = f.get("io_failure_probability", 0.0);
  return c;
}

namespace {

std::string result_key(const CBenchResult& r) {
  return r.field + "|" + r.compressor + "|" + r.config.label();
}

/// Resolves a telemetry output path against the run's output dir (absolute
/// paths pass through) and writes \p content there.
std::string write_telemetry_file(const std::string& output_dir, const std::string& path,
                                 const std::string& content) {
  const std::string resolved =
      path.empty() || path.front() == '/' ? path : output_dir + "/" + path;
  std::ofstream out(resolved, std::ios::trunc);
  require(out.good(), "pipeline: cannot write telemetry file " + resolved);
  out << content;
  return resolved;
}

}  // namespace

PipelineSummary run_pipeline(const json::Value& config) {
  PipelineSummary summary;
  summary.output_dir = config.get("output", std::string("foresight_out"));
  ensure_directory(summary.output_dir);

  // --- Observability (tracing stays disabled unless asked for) ---
  std::string trace_out;
  std::string metrics_out;
  if (config.contains("telemetry")) {
    const json::Value& t = config.at("telemetry");
    trace_out = t.get("trace_out", std::string());
    metrics_out = t.get("metrics_out", std::string());
    if (t.get("trace", !trace_out.empty())) {
      telemetry::Tracer::enable(count_knob(
          t, "trace_capacity", static_cast<double>(telemetry::Tracer::kDefaultCapacity),
          kMaxTraceCapacity));
    }
  }

  // --- Fault injection (disabled unless the config carries "faults") ---
  // The plan outlives the whole run; the Scope installs it process-wide so
  // the io layer, the GPU simulator, and the CBench corruption hook all see
  // it. Destroyed (reverse order) before return.
  std::unique_ptr<fault::FaultPlan> fault_plan;
  std::optional<fault::Scope> fault_scope;
  if (const auto fault_cfg = parse_faults(config)) {
    fault_plan = std::make_unique<fault::FaultPlan>(*fault_cfg);
    fault_scope.emplace(*fault_plan);
  }

  // --- Dataset ---
  // Built on the widest pool the spec names: "threads", or
  // "optimizer.threads" with an optimizer stage (0, the global pool, counts
  // as the widest). The bytes are the same on any pool.
  const std::size_t intra_threads = count_knob(config, "threads", 1.0);
  std::size_t build_threads = intra_threads;
  if (config.contains("optimizer")) {
    const std::size_t opt_threads = count_knob(config.at("optimizer"), "threads", 1.0);
    build_threads =
        build_threads == 0 || opt_threads == 0 ? 0 : std::max(build_threads, opt_threads);
  }
  const io::Container dataset = [&] {
    const PoolHandle build_pool(build_threads);
    return build_dataset(config.at("dataset"), UINT64_MAX, build_pool.get());
  }();
  const std::string dataset_type = config.at("dataset").get("type", std::string("nyx"));

  // --- GPU simulator (shared by device-backed compressors) ---
  gpu::GpuSimulator sim(gpu::find_device(config.get("gpu", std::string("Tesla V100"))));

  const json::Value& analysis_cfg =
      config.contains("analysis") ? config.at("analysis") : json::Value(json::Object{});
  const bool do_pk = analysis_cfg.get("power_spectrum", false);
  const bool do_halo = analysis_cfg.get("halo_finder", false);
  require(!do_halo || is_particle_container(dataset),
          "pipeline: \"analysis.halo_finder\" needs particle data (variables x, y, z, "
          "vx, vy, vz); this dataset lacks them");
  const bool do_ssim = analysis_cfg.get("ssim", false);
  const analysis::FofParams halo_fof = parse_fof(analysis_cfg);

  // --- Build the PAT workflow: cbench jobs -> analysis jobs -> cinema. ---
  // "threads" is the intra-field knob (1 serial / 0 global / N dedicated);
  // it reaches codec sessions through CBench and the analysis kernels
  // directly. Output is byte-identical for any value, so it composes freely
  // with "jobs" (workflow-level parallelism) — though running both > 1
  // oversubscribes a small host.
  const PoolHandle intra(intra_threads);
  ThreadPool* const intra_pool = intra.get();
  const OnError on_error = parse_on_error(config.get("on_error", std::string("continue")));
  Workflow workflow;
  CBench bench({.keep_reconstructed = true, .dataset_name = dataset_type,
                .session_threads = intra_threads, .on_error = on_error});

  std::vector<std::string> cbench_job_names;

  struct PlannedRun {
    std::string compressor;
    std::vector<std::string> fields;
    std::vector<CompressorConfig> configs;
  };
  std::vector<PlannedRun> planned;
  for (const auto& run : config.at("runs").as_array()) {
    PlannedRun p;
    p.compressor = run.at("compressor").as_string();
    if (run.contains("fields")) {
      for (const auto& f : run.at("fields").as_array()) p.fields.push_back(f.as_string());
    } else {
      for (const auto& v : dataset.variables) p.fields.push_back(v.field.name);
    }
    p.configs = parse_config_list(run.at("configs"));
    planned.push_back(std::move(p));
  }

  // One compressor instance per planned run (GPU-backed ones share `sim`).
  std::vector<std::unique_ptr<Compressor>> compressors;
  for (const auto& p : planned) compressors.push_back(make_compressor(p.compressor, &sim));

  // Every cbench job gets a pre-assigned result slot, so results come out
  // in plan order (and jobs need no lock) however the workflow schedules.
  std::size_t job_count = 0;
  for (const auto& p : planned) job_count += p.fields.size() * p.configs.size();
  summary.results.resize(job_count);
  std::vector<std::vector<float>> recons(job_count);  // held for the analysis stage

  std::size_t slot = 0;
  for (std::size_t pi = 0; pi < planned.size(); ++pi) {
    const auto& p = planned[pi];
    for (const auto& field_name : p.fields) {
      for (const auto& cfg : p.configs) {
        const std::string job_name =
            strprintf("cbench-%s-%s-%s", p.compressor.c_str(), field_name.c_str(),
                      cfg.label().c_str());
        cbench_job_names.push_back(job_name);
        // Pre-fill the identity columns so a job that throws before
        // assigning its row (on_error "abort") still reports which
        // field/codec/config failed.
        summary.results[slot].dataset = dataset_type;
        summary.results[slot].field = field_name;
        summary.results[slot].compressor = p.compressor;
        summary.results[slot].config = cfg;
        Compressor* codec = compressors[pi].get();
        workflow.add(job_name, {}, [&, codec, field_name, cfg, slot] {
          const Field& field = dataset.find(field_name).field;
          CBenchResult r = bench.run_one(field, *codec, cfg);
          recons[slot] = std::move(r.reconstructed);
          r.reconstructed.clear();
          summary.results[slot] = std::move(r);
        });
        ++slot;
      }
    }
  }

  if (do_pk) {
    workflow.add("analysis-power-spectrum", cbench_job_names, [&] {
      // The original-field spectrum is candidate-independent: compute it
      // once per field and serve every result row from the cache.
      std::map<std::string, std::vector<analysis::PkBin>> baselines;
      for (std::size_t i = 0; i < summary.results.size(); ++i) {
        const auto& r = summary.results[i];
        const Field& field = dataset.find(r.field).field;
        if (field.dims.rank() != 3) continue;
        if (recons[i].empty()) continue;
        auto base = baselines.find(r.field);
        if (base == baselines.end()) {
          base = baselines
                     .emplace(r.field,
                              analysis::power_spectrum(field.data, field.dims, 0, intra_pool))
                     .first;
        } else {
          telemetry::MetricsRegistry::instance()
              .counter("optimizer.baseline_cache_hits")
              .add();
        }
        const auto pk =
            analysis::pk_ratio(base->second, recons[i], field.dims, 0.5, intra_pool);
        summary.pk_deviation[result_key(r)] = pk.max_deviation;
      }
    });
  }

  if (do_ssim) {
    workflow.add("analysis-ssim", cbench_job_names, [&] {
      for (std::size_t i = 0; i < summary.results.size(); ++i) {
        const auto& r = summary.results[i];
        const Field& field = dataset.find(r.field).field;
        if (recons[i].empty()) continue;
        summary.ssim[result_key(r)] = analysis::ssim(field.data, recons[i], field.dims);
      }
    });
  }

  if (do_halo) {
    workflow.add("analysis-halo-finder", cbench_job_names, [&] {
      const auto& x = dataset.find("x").field.data;
      const auto& y = dataset.find("y").field.data;
      const auto& z = dataset.find("z").field.data;
      const auto original = analysis::fof(x, y, z, halo_fof, intra_pool);
      // Binning and original mass function are shared by every comparison.
      std::optional<analysis::HaloBaseline> baseline;
      if (!original.halos.empty()) {
        baseline = analysis::make_halo_baseline(original.halos, 1.0);
      }

      std::map<std::string, std::size_t> slot_of;
      for (std::size_t i = 0; i < summary.results.size(); ++i) {
        if (!recons[i].empty()) slot_of[result_key(summary.results[i])] = i;
      }
      // Group position reconstructions by (compressor, config).
      for (const auto& r : summary.results) {
        if (r.field != "x") continue;
        const std::string suffix = "|" + r.compressor + "|" + r.config.label();
        const auto ix = slot_of.find("x" + suffix);
        const auto iy = slot_of.find("y" + suffix);
        const auto iz = slot_of.find("z" + suffix);
        if (ix == slot_of.end() || iy == slot_of.end() || iz == slot_of.end()) {
          continue;
        }
        const auto recon = analysis::fof(recons[ix->second], recons[iy->second],
                                         recons[iz->second], halo_fof, intra_pool);
        double deviation = 1.0;
        if (!recon.halos.empty() && baseline) {
          deviation = analysis::compare_halo_catalogs(*baseline, recon.halos)
                          .max_ratio_deviation;
        }
        summary.halo_deviation["position" + suffix] = deviation;
      }
    });
  }

  // --- Optimizer stage: the Section V-D best-fit search as a PAT job. ---
  // Independent of the cbench sweep (it opens its own compressor and runs
  // its own evaluations), so it schedules alongside the other jobs.
  std::unique_ptr<Compressor> opt_codec;
  if (config.contains("optimizer")) {
    OptimizeSpec spec = parse_optimize_spec(config.at("optimizer"));
    spec.options.on_error = on_error;
    opt_codec = make_compressor(spec.codec, &sim);
    workflow.add("optimizer", {}, [&, spec = std::move(spec)] {
      summary.optimization = optimize_dataset(dataset, *opt_codec, spec);
    });
  }

  // Cinema stage depends on every analysis (or directly on cbench).
  std::vector<std::string> cinema_deps = cbench_job_names;
  if (do_pk) cinema_deps.push_back("analysis-power-spectrum");
  if (do_ssim) cinema_deps.push_back("analysis-ssim");
  if (do_halo) cinema_deps.push_back("analysis-halo-finder");
  const bool do_cinema = config.get("cinema", false);
  if (do_cinema) {
    workflow.add("cinema", cinema_deps, [&] {
      CinemaDatabase db({"dataset", "field", "compressor", "config", "ratio", "bitrate",
                         "psnr_db", "mre", "pk_deviation", "FILE"});
      SvgPlot rd("Rate-distortion", "bitrate (bits/value)", "PSNR (dB)");
      std::map<std::string, PlotSeries> series;
      for (const auto& r : summary.results) {
        if (r.status != "ok") continue;  // failed rows carry no metrics to plot
        const std::string key = result_key(r);
        const auto pk_it = summary.pk_deviation.find(key);
        db.add_row({r.dataset, r.field, r.compressor, r.config.label(),
                    strprintf("%.3f", r.ratio), strprintf("%.3f", r.bit_rate),
                    strprintf("%.2f", r.distortion.psnr_db),
                    strprintf("%.3e", r.distortion.mre),
                    pk_it != summary.pk_deviation.end() ? strprintf("%.4f", pk_it->second)
                                                        : "",
                    "rate_distortion.svg"});
        auto& s = series[r.field + " (" + r.compressor + ")"];
        s.label = r.field + " (" + r.compressor + ")";
        s.dashed = codec_capabilities(r.compressor).plot_dashed;
        s.x.push_back(r.bit_rate);
        s.y.push_back(r.distortion.psnr_db);
      }
      db.write(summary.output_dir);
      for (auto& [label, s] : series) rd.add_series(std::move(s));
      rd.save(summary.output_dir + "/rate_distortion.svg");
      summary.artifacts.push_back("data.csv");
      summary.artifacts.push_back("rate_distortion.svg");
      write_cinema_index(summary.output_dir, "Foresight results", summary.artifacts);
      summary.artifacts.push_back("index.html");
    });
  }

  // Parallel execution is opt-in ("jobs": N). Compressors whose sessions
  // are order-sensitive (simulated-GPU timing) force the inline path so
  // modeled timings stay reproducible.
  const std::size_t jobs_requested = count_knob(config, "jobs", 0.0);
  bool parallel_ok = jobs_requested > 1;
  for (const auto& c : compressors) {
    if (!c->concurrent_sessions_safe()) parallel_ok = false;
  }
  if (opt_codec && !opt_codec->concurrent_sessions_safe()) parallel_ok = false;
  if (parallel_ok) {
    ThreadPool pool(jobs_requested);
    summary.workflow_ok = workflow.run(&pool, jobs_requested);
  } else {
    summary.workflow_ok = workflow.run(nullptr);
  }
  // A search that leaves a field without an acceptable config fails the
  // run, as it fails `foresight_cli optimize`.
  if (summary.optimization && !summary.optimization->all_fields_ok) {
    summary.workflow_ok = false;
  }

  // Under on_error "abort" a throwing cbench job is caught by the workflow
  // executor instead of CBench; fold its record into the result row so the
  // summary stays self-describing either way.
  for (std::size_t i = 0; i < cbench_job_names.size(); ++i) {
    const JobRecord& rec = workflow.records().at(cbench_job_names[i]);
    if (rec.status == JobStatus::kFailed && summary.results[i].status == "ok") {
      summary.results[i].status = "failed";
      summary.results[i].error = rec.error;
    }
  }
  for (const auto& r : summary.results) {
    if (r.status != "ok") ++summary.failed_jobs;
  }
  if (summary.optimization) {
    std::ofstream out(summary.output_dir + "/optimization.txt", std::ios::trunc);
    require(out.good(), "pipeline: cannot write optimization.txt");
    out << format_optimization(*summary.optimization);
    summary.artifacts.push_back("optimization.txt");
  }
  if (fault_plan) {
    const auto counts = fault_plan->counts();
    summary.injected_faults =
        counts.corruptions + counts.gpu_transients + counts.gpu_ooms + counts.io_failures;
  }
  if (telemetry::Tracer::enabled() && !trace_out.empty()) {
    telemetry::Tracer::disable();
    summary.trace_path = write_telemetry_file(summary.output_dir, trace_out,
                                              telemetry::Tracer::chrome_trace_json());
  }
  if (!metrics_out.empty()) {
    summary.metrics_path = write_telemetry_file(
        summary.output_dir, metrics_out,
        telemetry::MetricsRegistry::instance().to_json());
  }
  return summary;
}

PipelineSummary run_pipeline_file(const std::string& path) {
  return run_pipeline(json::parse_file(path));
}

}  // namespace cosmo::foresight
