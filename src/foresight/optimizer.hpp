/// \file optimizer.hpp
/// \brief The paper's configuration-optimization guideline (Section V-D):
/// (1) benchmark candidate configurations with CBench, (2) keep those whose
/// domain metrics are acceptable (power-spectrum ratio within 1 +/- 1% for
/// grid data; halo-count ratio for particle data), (3) pick the acceptable
/// configuration with the highest compression ratio — which also maximizes
/// overall throughput and minimizes storage.
///
/// Two search strategies share that contract. Exhaustive evaluates every
/// candidate. Guided (SearchMode::kGuided) fully evaluates only a few probe
/// configs per field, bisects onto the acceptability frontier using the
/// monotone deviation-vs-aggressiveness relationship, scans a short window
/// past the frontier (the deviation curve is only noisily monotone near the
/// tolerance, and the best config occasionally sits in an acceptable pocket
/// just beyond the first crossing), and fills the pruned rows from a
/// rate-quality surrogate (optimizer_model.hpp) — same chosen config on
/// monotone data, a fraction of the full evaluations. Both paths
/// compute the original-field baselines (P(k) spectrum, FoF catalog + halo
/// mass binning) once per field instead of once per candidate.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/fof.hpp"
#include "foresight/cbench.hpp"

namespace cosmo::foresight {

/// Candidate-search strategy for the Section V-D guideline.
enum class SearchMode {
  kExhaustive,  ///< fully evaluate every supported candidate
  kGuided,      ///< probe + surrogate + frontier bisection
};

/// Parses "exhaustive" / "guided"; anything else throws InvalidArgument.
SearchMode parse_search_mode(const std::string& text);

/// "exhaustive" / "guided".
std::string search_mode_label(SearchMode mode);

/// Knobs shared by both optimizer entry points.
struct OptimizerOptions {
  SearchMode search = SearchMode::kExhaustive;
  /// Guided search: full evaluations spent probing each mode group before
  /// bisection (clamped to [2, group size]; endpoints are always probed).
  std::size_t probes = 3;
  /// Threads of the one pool each optimize call owns (1 serial, 0 global
  /// pool, N a dedicated pool; see PoolHandle). The first evaluations of
  /// every field (its guided probes, or all its candidates) run as one
  /// batch, one evaluation per worker. Guided probes keep at most `probes`
  /// evaluations in flight, as one field's probe batch did: each holds a
  /// session arena, its reconstruction and a P(k) half grid, and letting
  /// the pool bound them costs more peak memory than the benchmark allows
  /// (EXPERIMENTS.md). The same pool also threads the serial phases — the
  /// baseline P(k) or FoF, single-candidate bisection and pocket-scan steps
  /// (codec kernels included) — and every evaluation's P(k) ratio and FoF.
  /// Results are slotted by candidate index and every kernel is
  /// thread-count invariant, so choices, metrics and report ordering are
  /// identical for any value.
  std::size_t threads = 1;
  /// kAbort rethrows a failing evaluation; kContinue records a "failed"
  /// candidate row and keeps searching. A failed probe counts as
  /// unacceptable for bracketing.
  OnError on_error = OnError::kAbort;
};

/// Outcome of evaluating one candidate configuration on one field.
struct CandidateOutcome {
  CompressorConfig config;
  double ratio = 0.0;
  double psnr_db = 0.0;
  bool acceptable = false;
  /// Domain-metric deviation: max |pk ratio - 1| (grid) or max halo
  /// count-ratio deviation (particles).
  double metric_deviation = 0.0;
  /// "evaluated" (full CBench run), "pruned" (guided search skipped it;
  /// ratio/deviation are surrogate predictions), "skipped" (codec does not
  /// support the mode), or "failed" (evaluation threw under kContinue).
  std::string status = "evaluated";
  /// True when ratio/metric_deviation come from the surrogate (or the SZ
  /// rate estimator) instead of a real run.
  bool predicted = false;
  std::string error;  ///< diagnostic for failed rows, empty otherwise
};

/// Chosen configuration for one field.
struct FieldChoice {
  std::string field;
  bool found = false;          ///< an acceptable candidate exists
  CandidateOutcome chosen;     ///< valid when found; always a real evaluation
  std::vector<CandidateOutcome> candidates;  ///< every candidate, input order
};

/// What the search spent, aggregated over all fields of one optimize call.
/// Mirrored into the process MetricsRegistry as optimizer.* counters.
struct OptimizerStats {
  std::size_t candidates = 0;          ///< candidate rows across all fields
  std::size_t full_evals = 0;          ///< real compress+decompress+metric runs
  std::size_t probes = 0;              ///< full evals spent on probe batches
  std::size_t pruned = 0;              ///< rows filled from the surrogate
  std::size_t skipped = 0;             ///< rows skipped for capability reasons
  std::size_t failed = 0;              ///< rows failed under OnError::kContinue
  std::size_t rate_estimates = 0;      ///< sz::estimate_rate calls
  std::size_t baseline_cache_hits = 0; ///< metric evals served by a cached baseline
  double wall_seconds = 0.0;           ///< whole optimize call
};

/// Full guideline result.
struct OptimizationResult {
  std::vector<FieldChoice> per_field;
  double overall_ratio = 0.0;  ///< total bytes over total compressed bytes
  bool all_fields_ok = false;
  OptimizerStats stats;
};

/// Grid datasets (Nyx): acceptance is the power-spectrum ratio staying
/// within 1 +/- \p tolerance for k <= k_fraction * k_nyquist.
OptimizationResult optimize_grid_dataset(
    const io::Container& data, Compressor& compressor,
    const std::map<std::string, std::vector<CompressorConfig>>& candidates,
    double tolerance, double k_fraction, const OptimizerOptions& options = {});

/// Particle datasets (HACC): position acceptance is the FoF halo
/// count-ratio per mass bin staying within 1 +/- \p halo_tolerance; the
/// same position bound is applied to x, y, z. Velocity acceptance is the
/// mean halo bulk-velocity relative deviation staying within
/// \p velocity_tolerance (velocities do not affect FoF, so they get their
/// own, velocity-based criterion). Returns choices for "position" and
/// "velocity" pseudo-fields.
OptimizationResult optimize_particle_dataset(
    const io::Container& data, Compressor& compressor,
    const std::vector<CompressorConfig>& position_candidates,
    const std::vector<CompressorConfig>& velocity_candidates,
    const analysis::FofParams& fof_params, double halo_tolerance,
    double velocity_tolerance, const OptimizerOptions& options = {});

/// One best-fit search, described once: the pipeline's "optimizer" object,
/// `foresight_cli optimize` and the benches all fill one of these. Each
/// default lives in its member initialiser.
struct OptimizeSpec {
  std::string codec;  ///< codec name ("compressor" in JSON)
  OptimizerOptions options;
  double tolerance = 0.01;  ///< grid: P(k) ratio band
  double k_fraction = 0.5;  ///< grid: k <= k_fraction * k_nyquist
  double halo_tolerance = 0.05;
  double velocity_tolerance = 0.05;
  analysis::FofParams fof{.linking_length = 1.5};
  /// Empty lists take the defaults: default_grid_candidates per 3-D field,
  /// default_position_candidates and default_velocity_candidates.
  std::vector<CompressorConfig> candidates;  ///< grid, shared by every field
  std::vector<CompressorConfig> position_candidates;
  std::vector<CompressorConfig> velocity_candidates;
};

/// True for a HACC-style particle container: x, y, z, vx, vy, vz present.
bool is_particle_container(const io::Container& data);

/// The search \p spec describes, chosen from the data: the particle search
/// for a particle container, else the grid search over every 3-D field.
/// \p compressor is the codec \p spec.codec names.
OptimizationResult optimize_dataset(const io::Container& data, Compressor& compressor,
                                    const OptimizeSpec& spec);

/// Renders an OptimizationResult as text.
std::string format_optimization(const OptimizationResult& result);

}  // namespace cosmo::foresight
