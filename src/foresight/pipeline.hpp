/// \file pipeline.hpp
/// \brief The JSON-configured Foresight pipeline: "By only configuring a
/// simple JSON file, Foresight can automatically evaluate diverse
/// compression configurations and provide user-desired analysis and
/// visualization on the lossy compressed data" (paper Section IV-A).
///
/// Stages: dataset generation/loading -> CBench sweeps -> PAT-scheduled
/// analysis jobs (power spectrum / halo finder) -> Cinema database + plots.
///
/// Config schema (all sizes container-friendly by default):
/// {
///   "output": "out/foresight_run",
///   "dataset": {"type": "nyx"|"hacc", "dim": 64, "particles": 100000,
///               "seed": 42},  // or {"type": "file", "path": ...}
///   "gpu": "Tesla V100",
///   "runs": [
///     {"compressor": "cuzfp", "fields": ["baryon_density"],
///      "configs": [{"mode": "rate", "value": 4}, ...]}
///   ],
///   "analysis": {"power_spectrum": true,
///                "halo_finder": false,  // particle data only; true on
///                                       // grid data is InvalidArgument
///                "linking_length": 1.5, "min_members": 10},
///   "cinema": true,
///   "jobs": 4,     // workflow-level parallelism (jobs run concurrently)
///   "threads": 1,  // intra-field threads inside each codec/analysis kernel
///                  // (1 serial, 0 global pool, N dedicated); output is
///                  // byte-identical for any value. The dataset is built
///                  // on the wider of this pool and "optimizer.threads"
///   "on_error": "continue",  // per-job failure policy: "continue" records
///                            // a failed row and keeps going (default);
///                            // "abort" fails the run: every independent
///                            // job still runs and a failed one's row still
///                            // reads "failed", but the analysis and cinema
///                            // jobs that depend on the rows are skipped
///   "telemetry": {  // observability (absent = tracing stays disabled)
///     "trace": true,             // enable span tracing for this run
///     "trace_capacity": 65536,   // ring size in spans, below 2^24 (oldest
///                                // overwritten)
///     "trace_out": "trace.json",    // Chrome trace_event JSON, written
///                                   // under "output" unless absolute
///     "metrics_out": "metrics.json" // MetricsRegistry JSON dump
///   },
///   "faults": {    // deterministic fault injection (absent = disabled)
///     "seed": 1234,
///     "corrupt_probability": 0.5,    // stream corruption between stages
///     "gpu_transient_every": 7,      // every Nth device op throws transient
///     "gpu_transient_probability": 0.0,
///     "gpu_oom_every": 0,            // every Nth device op throws OOM
///     "gpu_oom_probability": 0.0,
///     "io_failure_every": 0,         // every Nth io::load/save fails
///     "io_failure_probability": 0.0
///   },
///   "optimizer": {  // Section V-D best-fit search (absent = stage off).
///                   // Grid vs particle search is decided from the data: a
///                   // container with x, y, z, vx, vy, vz is particle data.
///     "compressor": "sz-cpu",
///     "search": "exhaustive"|"guided",
///     "probes": 3,        // guided: full evals per probe batch
///     "threads": 1,       // candidate-eval workers (1/0/N convention);
///                         // also builds the dataset when wider than
///                         // the top-level "threads"
///     "tolerance": 0.01,  // grid P(k) band
///     "k_fraction": 0.5,
///     "halo_tolerance": 0.05,      // particle data only
///     "velocity_tolerance": 0.05,
///     "linking_length": 1.5,
///     "min_members": 10,
///     "candidates": [{"mode": "abs", "value": 0.1}, ...],  // grid; default:
///                                                  // the codec's default sweep
///     "position_candidates": [...],  // particles; default: paper's HACC lattices
///     "velocity_candidates": [...]
///   }
/// }
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "foresight/cbench.hpp"
#include "foresight/optimizer.hpp"
#include "json/json.hpp"

namespace cosmo::foresight {

/// Builds (or loads) the dataset a JSON spec describes: {"type": "nyx",
/// "dim", "seed"}, {"type": "hacc", "particles", "seed", "halo_count"} or
/// {"type": "file", "path"}. Shared by the pipeline and foresightd. The
/// generator knobs must be non-negative integers, and a generated field may
/// not exceed \p max_field_bytes; either violation throws InvalidArgument
/// before anything is allocated. Generation runs on \p pool (null: serial)
/// with bytes identical for any pool.
io::Container build_dataset(const json::Value& spec,
                            std::uint64_t max_field_bytes = UINT64_MAX,
                            ThreadPool* pool = nullptr);

/// Builds a FaultPlan config from a config's optional "faults" object.
/// nullopt (absent key) means fault injection stays fully disabled.
std::optional<fault::Config> parse_faults(const json::Value& config);

/// Everything a pipeline run produces (reconstructions are dropped after
/// analysis to bound memory).
struct PipelineSummary {
  std::vector<CBenchResult> results;
  /// "field|compressor|config" -> max |pk ratio - 1| (when power_spectrum on).
  std::map<std::string, double> pk_deviation;
  /// "position|compressor|config" -> max halo count-ratio deviation.
  std::map<std::string, double> halo_deviation;
  /// "field|compressor|config" -> mean SSIM (when analysis.ssim is on).
  std::map<std::string, double> ssim;
  /// Section V-D best-fit search result (set when the config carries an
  /// "optimizer" object).
  std::optional<OptimizationResult> optimization;
  std::string output_dir;
  std::vector<std::string> artifacts;  ///< files written under output_dir
  /// Every job ran, and an optimizer stage found an acceptable config for
  /// every field.
  bool workflow_ok = false;
  std::size_t failed_jobs = 0;      ///< cbench rows with status != "ok"
  std::size_t injected_faults = 0;  ///< total faults the plan fired (0 = none)
  std::string trace_path;    ///< trace JSON written this run ("" = tracing off)
  std::string metrics_path;  ///< metrics JSON written this run ("" = none)
};

/// Runs the pipeline described by a parsed JSON config.
PipelineSummary run_pipeline(const json::Value& config);

/// Convenience: parse a JSON file then run.
PipelineSummary run_pipeline_file(const std::string& path);

}  // namespace cosmo::foresight
