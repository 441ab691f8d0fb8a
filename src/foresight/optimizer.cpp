#include "foresight/optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "analysis/halo_stats.hpp"
#include "analysis/power_spectrum.hpp"
#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "foresight/optimizer_model.hpp"
#include "foresight/sweep.hpp"
#include "sz/rate_estimate.hpp"

namespace cosmo::foresight {

SearchMode parse_search_mode(const std::string& text) {
  if (text == "exhaustive") return SearchMode::kExhaustive;
  if (text == "guided") return SearchMode::kGuided;
  throw InvalidArgument("optimizer: unknown search mode '" + text +
                        "' (expected \"exhaustive\" or \"guided\")");
}

std::string search_mode_label(SearchMode mode) {
  return mode == SearchMode::kGuided ? "guided" : "exhaustive";
}

namespace {

/// Guided search evaluates this many positions past the acceptability
/// frontier (extending past every acceptable pocket it finds) before
/// trusting the monotone model for the rest.
constexpr std::size_t kPocketWindow = 2;

CandidateOutcome failed_outcome(const CompressorConfig& config, const std::string& what) {
  CandidateOutcome out;
  out.config = config;
  out.status = "failed";
  out.error = what;
  return out;
}

/// One full evaluation: a CBench run of \p config (on the scheduler's
/// session and result scratch) scored against the field's baseline.
using EvalFn = std::function<CandidateOutcome(const CompressorConfig&, CodecSession&,
                                              CompressResult&, DecompressResult&)>;

/// Optional cheap CR predictor for pruned rows (sz::estimate_rate where the
/// codec's abs path is the SZ pipeline). Returns 0 when not predictable.
using RatioPredictor = std::function<double(const CompressorConfig&)>;

/// One field's candidate search (exhaustive or guided), split where it can
/// share a scheduler batch with the other fields' searches. first_batch()
/// names the evaluations every search starts with: each supported
/// candidate (exhaustive), or the probes of each mode group (guided).
/// finish() runs the rest, one field at a time: per mode group it brackets
/// the frontier from the probes, bisects onto it, scans for pockets past
/// it and fills the pruned rows from the surrogate, then picks the choice.
class FieldSearch {
 public:
  /// \p eval is the full evaluation; \p predict_ratio may be null.
  FieldSearch(std::string field_name, const std::vector<CompressorConfig>& candidates,
              Compressor& compressor, const OptimizerOptions& options, EvalFn eval,
              RatioPredictor predict_ratio, OptimizerStats& stats)
      : candidates_(candidates),
        eval_(std::move(eval)),
        predict_ratio_(std::move(predict_ratio)),
        stats_(stats),
        outcomes_(candidates.size()),
        ran_(candidates.size(), 0) {
    choice_.field = std::move(field_name);
    stats_.candidates += candidates.size();
    // Capability pruning: a mixed candidate list (e.g. one grid shared by
    // an abs- and a rate-mode codec) records the modes this codec does not
    // support as "skipped" rows instead of silently dropping them.
    std::vector<std::size_t> supported;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      outcomes_[i].config = candidates[i];
      if (compressor.capabilities().supports_mode(candidates[i].mode)) {
        supported.push_back(i);
      } else {
        outcomes_[i].status = "skipped";
        ++stats_.skipped;
      }
    }
    if (options.search == SearchMode::kExhaustive) {
      first_batch_ = std::move(supported);
      return;
    }
    // Guided: the mode groups in first-seen order, each in aggressiveness
    // order, probed at its endpoints plus evenly spread interior positions.
    for (const std::size_t i : supported) {
      const auto it = std::find_if(groups_.begin(), groups_.end(), [&](const Group& g) {
        return candidates[g.members.front()].mode == candidates[i].mode;
      });
      if (it == groups_.end()) {
        groups_.push_back({{i}, {}, {}});
      } else {
        it->members.push_back(i);
      }
    }
    for (Group& g : groups_) {
      std::vector<CompressorConfig> configs;
      configs.reserve(g.members.size());
      for (const std::size_t i : g.members) configs.push_back(candidates[i]);
      g.order = aggressiveness_order(configs);
      g.probe_pos = probe_positions(g.order.size(), options.probes);
      for (const std::size_t p : g.probe_pos) first_batch_.push_back(g.at(p));
    }
  }

  [[nodiscard]] const std::vector<std::size_t>& first_batch() const { return first_batch_; }

  /// Evaluates candidate \p i into its pre-indexed slot.
  void evaluate_one(std::size_t i, CodecSession& session, CompressResult& c,
                    DecompressResult& d) {
    outcomes_[i] = eval_(candidates_[i], session, c, d);
  }

  /// Records candidate \p i as failed (OnError::kContinue).
  void fail_one(std::size_t i, const Error& e) {
    outcomes_[i] = failed_outcome(candidates_[i], e.what());
  }

  /// Marks \p batch as run by the scheduler: status alone cannot tell, as
  /// an untouched outcome carries the default "evaluated".
  void mark_ran(const std::vector<std::size_t>& batch) {
    for (const std::size_t i : batch) ran_[i] = 1;
    stats_.full_evals += batch.size();
  }

  FieldChoice finish(JobScheduler& scheduler) {
    for (const Group& g : groups_) refine(g, scheduler);
    // Guideline step 3: among acceptable configs, keep the highest ratio.
    // Only real evaluations are eligible — the chosen config's metrics are
    // always measured, never predicted.
    for (const auto& o : outcomes_) {
      if (o.status == "failed") ++stats_.failed;
      if (o.status != "evaluated" || !o.acceptable) continue;
      if (!choice_.found || o.ratio > choice_.chosen.ratio) {
        choice_.found = true;
        choice_.chosen = o;
      }
    }
    choice_.candidates = std::move(outcomes_);
    return std::move(choice_);
  }

 private:
  /// One mode's candidates (indices into the candidate list), their
  /// aggressiveness order, and the order positions probed first.
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::size_t> order;
    std::vector<std::size_t> probe_pos;
    [[nodiscard]] std::size_t at(std::size_t pos) const { return members[order[pos]]; }
  };

  /// Evaluates one candidate on its own scheduler run.
  void evaluate_single(std::size_t i, JobScheduler& scheduler) {
    scheduler.run(
        1,
        [&](std::size_t, CodecSession& session, CompressResult& c, DecompressResult& d) {
          evaluate_one(i, session, c, d);
        },
        [&](std::size_t, const Error& e) { fail_one(i, e); });
    mark_ran({i});
  }

  /// Guided search after the probes: bisect onto the acceptability
  /// frontier, scan past it, and fill the remaining rows from the
  /// surrogate fitted through the evaluated points.
  void refine(const Group& g, JobScheduler& scheduler) {
    const std::size_t size = g.order.size();
    const auto evaluated = [&](std::size_t pos) { return ran_[g.at(pos)] != 0; };
    // A failed evaluation cannot be verified acceptable, so it bounds the
    // frontier from the unacceptable side.
    const auto pos_acceptable = [&](std::size_t pos) {
      const CandidateOutcome& o = outcomes_[g.at(pos)];
      return o.status == "evaluated" && o.acceptable;
    };

    // Bracket the frontier: hi = least aggressive probed-unacceptable
    // position, lo = most aggressive probed-acceptable position below it.
    std::size_t hi = size;  // past-the-end = no unacceptable probe
    std::size_t lo = size;  // past-the-end = no acceptable probe
    for (const std::size_t p : g.probe_pos) {
      if (!pos_acceptable(p)) {
        hi = p;
        break;
      }
      lo = p;
    }

    // Bisection refinement: deviation grows with aggressiveness, so the
    // frontier between the bracket endpoints is found in O(log gap) full
    // evaluations instead of evaluating the whole gap.
    if (lo < hi && hi < size) {
      TRACE_SPAN("optimizer.bisect");
      for (std::size_t mid = bisect_next(lo, hi); mid != kBisectDone;
           mid = bisect_next(lo, hi)) {
        evaluate_single(g.at(mid), scheduler);
        if (pos_acceptable(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }

    // Pocket scan: near the tolerance the deviation-vs-aggressiveness
    // curve is only noisily monotone, and the exhaustive winner
    // occasionally sits in an acceptable pocket just past the first
    // crossing. Evaluate a small window above the frontier, extending it
    // past every acceptable position it uncovers, so those pockets are
    // harvested at bounded extra cost.
    if (hi < size) {
      std::size_t limit = std::min(size - 1, hi + kPocketWindow);
      for (std::size_t pos = hi + 1; pos <= limit; ++pos) {
        if (!evaluated(pos)) evaluate_single(g.at(pos), scheduler);
        if (pos_acceptable(pos)) limit = std::min(size - 1, pos + kPocketWindow);
      }
    }

    // Surrogate through every real evaluation in this group.
    RateQualityModel model;
    for (std::size_t pos = 0; pos < size; ++pos) {
      const CandidateOutcome& o = outcomes_[g.at(pos)];
      if (evaluated(pos) && o.status == "evaluated" && o.config.value > 0.0) {
        model.add_point(o.config.value, o.ratio, o.metric_deviation);
      }
    }

    // Fill the pruned rows: monotone acceptability (positions below the
    // bracket are acceptable, above it are not) plus predicted metrics.
    for (std::size_t pos = 0; pos < size; ++pos) {
      if (evaluated(pos)) continue;
      CandidateOutcome& o = outcomes_[g.at(pos)];
      o.status = "pruned";
      o.predicted = true;
      o.acceptable = pos < hi;
      if (model.points() > 0 && o.config.value > 0.0) {
        o.ratio = model.predict_ratio(o.config.value);
        o.metric_deviation = model.predict_deviation(o.config.value);
      }
      if (predict_ratio_) {
        const double est = predict_ratio_(o.config);
        if (est > 0.0) {
          o.ratio = est;
          ++stats_.rate_estimates;
        }
      }
      ++stats_.pruned;
    }
  }

  const std::vector<CompressorConfig>& candidates_;
  EvalFn eval_;
  RatioPredictor predict_ratio_;
  OptimizerStats& stats_;
  FieldChoice choice_;
  std::vector<CandidateOutcome> outcomes_;
  std::vector<char> ran_;
  std::vector<Group> groups_;
  std::vector<std::size_t> first_batch_;
};

/// Runs every search's first batch as one scheduler batch, so no worker
/// idles at the boundary between one field's batch and the next; each
/// outcome still lands in its own search's slot. Guided probes keep the
/// bound a per-field probe batch had, at most `probes` evaluations in
/// flight: each holds a session arena, a reconstruction and a P(k) half
/// grid, and a fourth one breaks the benchmark's peak-RSS bound
/// (EXPERIMENTS.md).
void run_first_batches(std::vector<FieldSearch>& searches, JobScheduler& scheduler,
                       const OptimizerOptions& options, OptimizerStats& stats) {
  std::vector<std::pair<FieldSearch*, std::size_t>> jobs;
  for (FieldSearch& search : searches) {
    for (const std::size_t i : search.first_batch()) jobs.emplace_back(&search, i);
  }
  const auto run = [&](std::size_t max_in_flight) {
    scheduler.run(
        jobs.size(),
        [&](std::size_t j, CodecSession& session, CompressResult& c, DecompressResult& d) {
          jobs[j].first->evaluate_one(jobs[j].second, session, c, d);
        },
        [&](std::size_t j, const Error& e) { jobs[j].first->fail_one(jobs[j].second, e); },
        max_in_flight);
  };
  if (options.search == SearchMode::kGuided) {
    TRACE_SPAN("optimizer.probe_batch");
    // probe_positions takes at least two probes per group.
    run(std::max<std::size_t>(options.probes, 2));
    stats.probes += jobs.size();
  } else {
    run(SIZE_MAX);
  }
  for (FieldSearch& search : searches) search.mark_ran(search.first_batch());
}

void publish_stats(const OptimizerStats& stats) {
  auto& metrics = telemetry::MetricsRegistry::instance();
  metrics.counter("optimizer.runs").add();
  metrics.counter("optimizer.candidates").add(stats.candidates);
  metrics.counter("optimizer.full_evals").add(stats.full_evals);
  metrics.counter("optimizer.probes").add(stats.probes);
  metrics.counter("optimizer.pruned_candidates").add(stats.pruned);
  metrics.counter("optimizer.skipped_candidates").add(stats.skipped);
  metrics.counter("optimizer.failed_candidates").add(stats.failed);
  metrics.counter("optimizer.rate_estimates").add(stats.rate_estimates);
  metrics.counter("optimizer.baseline_cache_hits").add(stats.baseline_cache_hits);
}

/// sz::estimate_rate-backed CR predictor for codecs whose abs path is the
/// SZ pipeline, restricted to native 3-D fields (1-D fields go through
/// ShapeAdapter padding, which the estimator does not model). Samples every
/// 4th block — prediction + quantization on a quarter of the field, plenty
/// for a pruned-row estimate.
RatioPredictor make_rate_predictor(const Field& field, Compressor& compressor) {
  if (!compressor.capabilities().abs_rate_estimable) return nullptr;
  if (field.dims.rank() != 3) return nullptr;
  return [&field](const CompressorConfig& config) -> double {
    if (config.mode != "abs" || config.value <= 0.0) return 0.0;
    sz::Params params;
    params.abs_error_bound = config.value;
    const sz::RateEstimate est =
        sz::estimate_rate(field.data, field.dims, params, /*block_stride=*/4);
    return est.estimated_bits_per_value > 0.0 ? 32.0 / est.estimated_bits_per_value : 0.0;
  };
}

}  // namespace

OptimizationResult optimize_grid_dataset(
    const io::Container& data, Compressor& compressor,
    const std::map<std::string, std::vector<CompressorConfig>>& candidates,
    double tolerance, double k_fraction, const OptimizerOptions& options) {
  TRACE_SPAN("optimizer.grid");
  Timer wall;
  CBench bench({.keep_reconstructed = true, .dataset_name = "grid"});
  OptimizationResult result;
  std::size_t total_original = 0;
  std::size_t total_compressed = 0;
  bool all_ok = true;
  const PoolHandle pool(options.threads);
  JobScheduler scheduler(compressor, pool.get(), options.on_error, "optimizer.worker");
  const std::string name = compressor.name();

  // The searched fields, each with its original-field spectrum: identical
  // across candidates, so it is computed once and serves every ratio.
  std::vector<const Field*> fields;
  for (const auto& variable : data.variables) {
    if (candidates.contains(variable.field.name)) fields.push_back(&variable.field);
  }
  std::vector<std::vector<analysis::PkBin>> baselines(fields.size());
  {
    TRACE_SPAN("optimizer.baseline");
    for (std::size_t f = 0; f < fields.size(); ++f) {
      baselines[f] = analysis::power_spectrum(fields[f]->data, fields[f]->dims, 0, pool.get());
    }
  }
  std::atomic<std::size_t> cache_hits{0};

  std::vector<FieldSearch> searches;
  searches.reserve(fields.size());
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const Field& field = *fields[f];
    const std::vector<analysis::PkBin>& baseline = baselines[f];
    EvalFn eval = [&](const CompressorConfig& config, CodecSession& session,
                      CompressResult& c, DecompressResult& d) {
      CBenchResult r = bench.run_session(field, name, session, config, c, d);
      const auto pk =
          analysis::pk_ratio(baseline, r.reconstructed, field.dims, k_fraction, pool.get());
      cache_hits.fetch_add(1, std::memory_order_relaxed);
      CandidateOutcome outcome;
      outcome.config = config;
      outcome.ratio = r.ratio;
      outcome.psnr_db = r.distortion.psnr_db;
      outcome.metric_deviation = pk.max_deviation;
      outcome.acceptable = analysis::pk_acceptable(pk, tolerance);
      return outcome;
    };
    searches.emplace_back(field.name, candidates.at(field.name), compressor, options,
                          std::move(eval), make_rate_predictor(field, compressor),
                          result.stats);
  }
  run_first_batches(searches, scheduler, options, result.stats);

  for (std::size_t f = 0; f < fields.size(); ++f) {
    FieldChoice choice = searches[f].finish(scheduler);
    if (choice.found) {
      total_original += fields[f]->bytes();
      total_compressed += static_cast<std::size_t>(
          static_cast<double>(fields[f]->bytes()) / choice.chosen.ratio);
    } else {
      all_ok = false;
    }
    result.per_field.push_back(std::move(choice));
  }
  result.stats.baseline_cache_hits += cache_hits.load();

  result.all_fields_ok = all_ok && !result.per_field.empty();
  result.overall_ratio = total_compressed > 0
                             ? static_cast<double>(total_original) /
                                   static_cast<double>(total_compressed)
                             : 0.0;
  result.stats.wall_seconds = wall.seconds();
  publish_stats(result.stats);
  return result;
}

namespace {

/// Mean relative deviation of per-halo bulk velocities, using the original
/// halo membership (velocity distortion metric for the particle guideline).
double halo_velocity_deviation(const analysis::FofResult& halos,
                               std::span<const float> v_orig,
                               std::span<const float> v_recon) {
  if (halos.halos.empty()) return 0.0;
  std::vector<double> sum_o(halos.halos.size(), 0.0);
  std::vector<double> sum_r(halos.halos.size(), 0.0);
  std::vector<std::size_t> count(halos.halos.size(), 0);
  for (std::size_t p = 0; p < v_orig.size(); ++p) {
    const auto h = halos.halo_of_particle[p];
    if (h < 0) continue;
    sum_o[static_cast<std::size_t>(h)] += v_orig[p];
    sum_r[static_cast<std::size_t>(h)] += v_recon[p];
    ++count[static_cast<std::size_t>(h)];
  }
  double dev = 0.0;
  std::size_t used = 0;
  for (std::size_t h = 0; h < halos.halos.size(); ++h) {
    if (count[h] == 0) continue;
    const double mo = sum_o[h] / static_cast<double>(count[h]);
    const double mr = sum_r[h] / static_cast<double>(count[h]);
    const double scale = std::max(std::fabs(mo), 10.0);  // floor avoids 0/0
    dev += std::fabs(mr - mo) / scale;
    ++used;
  }
  return used ? dev / static_cast<double>(used) : 0.0;
}

}  // namespace

OptimizationResult optimize_particle_dataset(
    const io::Container& data, Compressor& compressor,
    const std::vector<CompressorConfig>& position_candidates,
    const std::vector<CompressorConfig>& velocity_candidates,
    const analysis::FofParams& fof_params, double halo_tolerance,
    double velocity_tolerance, const OptimizerOptions& options) {
  TRACE_SPAN("optimizer.particles");
  Timer wall;
  CBench bench({.keep_reconstructed = true, .dataset_name = "particles"});
  const PoolHandle pool(options.threads);
  const auto& x = data.find("x").field;
  const auto& y = data.find("y").field;
  const auto& z = data.find("z").field;

  // The original FoF catalog (and its halo mass binning) is the baseline
  // for every candidate: run it once, compare each reconstruction to it.
  analysis::FofResult original_halos;
  {
    TRACE_SPAN("optimizer.baseline");
    original_halos = analysis::fof(x.data, y.data, z.data, fof_params, pool.get());
  }
  require(!original_halos.halos.empty(),
          "optimize_particle_dataset: no halos in original data");
  const analysis::HaloBaseline halo_baseline =
      analysis::make_halo_baseline(original_halos.halos, 1.0);

  OptimizationResult result;
  JobScheduler scheduler(compressor, pool.get(), options.on_error, "optimizer.worker");
  const std::string name = compressor.name();
  std::atomic<std::size_t> cache_hits{0};

  // --- Positions: same bound on x, y, z; acceptance via halo counts. ---
  const EvalFn eval_position = [&](const CompressorConfig& config, CodecSession& session,
                                   CompressResult& c, DecompressResult& d) {
    CBenchResult rx = bench.run_session(x, name, session, config, c, d);
    CBenchResult ry = bench.run_session(y, name, session, config, c, d);
    CBenchResult rz = bench.run_session(z, name, session, config, c, d);
    const analysis::FofResult recon_halos = analysis::fof(
        rx.reconstructed, ry.reconstructed, rz.reconstructed, fof_params, pool.get());
    CandidateOutcome outcome;
    outcome.config = config;
    outcome.ratio = 3.0 * static_cast<double>(x.bytes()) /
                    static_cast<double>(rx.compressed_bytes + ry.compressed_bytes +
                                        rz.compressed_bytes);
    outcome.psnr_db = rx.distortion.psnr_db;
    if (recon_halos.halos.empty()) {
      outcome.metric_deviation = 1.0;
      outcome.acceptable = false;
    } else {
      const auto cmp = analysis::compare_halo_catalogs(halo_baseline, recon_halos.halos);
      cache_hits.fetch_add(1, std::memory_order_relaxed);
      outcome.metric_deviation = cmp.max_ratio_deviation;
      outcome.acceptable = cmp.max_ratio_deviation <= halo_tolerance;
    }
    return outcome;
  };

  // --- Velocities: acceptance via halo bulk-velocity preservation. ---
  const auto& vx = data.find("vx").field;
  const auto& vy = data.find("vy").field;
  const auto& vz = data.find("vz").field;
  const EvalFn eval_velocity = [&](const CompressorConfig& config, CodecSession& session,
                                   CompressResult& c, DecompressResult& d) {
    CBenchResult rvx = bench.run_session(vx, name, session, config, c, d);
    CBenchResult rvy = bench.run_session(vy, name, session, config, c, d);
    CBenchResult rvz = bench.run_session(vz, name, session, config, c, d);
    CandidateOutcome outcome;
    outcome.config = config;
    outcome.ratio = 3.0 * static_cast<double>(vx.bytes()) /
                    static_cast<double>(rvx.compressed_bytes + rvy.compressed_bytes +
                                        rvz.compressed_bytes);
    outcome.psnr_db = rvx.distortion.psnr_db;
    const double dev = std::max(
        {halo_velocity_deviation(original_halos, vx.data, rvx.reconstructed),
         halo_velocity_deviation(original_halos, vy.data, rvy.reconstructed),
         halo_velocity_deviation(original_halos, vz.data, rvz.reconstructed)});
    cache_hits.fetch_add(1, std::memory_order_relaxed);
    outcome.metric_deviation = dev;
    outcome.acceptable = dev <= velocity_tolerance;
    return outcome;
  };
  // Both searches' first evaluations share one batch; each then refines on
  // its own, positions first.
  std::vector<FieldSearch> searches;
  searches.reserve(2);
  searches.emplace_back("position", position_candidates, compressor, options, eval_position,
                        nullptr, result.stats);
  searches.emplace_back("velocity", velocity_candidates, compressor, options, eval_velocity,
                        nullptr, result.stats);
  run_first_batches(searches, scheduler, options, result.stats);
  FieldChoice pos_choice = searches[0].finish(scheduler);
  FieldChoice vel_choice = searches[1].finish(scheduler);

  result.stats.baseline_cache_hits += cache_hits.load();
  result.all_fields_ok = pos_choice.found && vel_choice.found;
  if (result.all_fields_ok) {
    // Overall: positions and velocities are equal-sized thirds of the data.
    const double inv =
        0.5 / pos_choice.chosen.ratio + 0.5 / vel_choice.chosen.ratio;
    result.overall_ratio = 1.0 / inv;
  }
  result.per_field.push_back(std::move(pos_choice));
  result.per_field.push_back(std::move(vel_choice));
  result.stats.wall_seconds = wall.seconds();
  publish_stats(result.stats);
  return result;
}

bool is_particle_container(const io::Container& data) {
  std::size_t found = 0;
  for (const auto& v : data.variables) {
    for (const char* name : {"x", "y", "z", "vx", "vy", "vz"}) found += v.field.name == name;
  }
  return found == 6;
}

OptimizationResult optimize_dataset(const io::Container& data, Compressor& compressor,
                                    const OptimizeSpec& spec) {
  const CodecCapabilities& caps = compressor.capabilities();
  if (is_particle_container(data)) {
    return optimize_particle_dataset(
        data, compressor,
        spec.position_candidates.empty() ? default_position_candidates(caps)
                                         : spec.position_candidates,
        spec.velocity_candidates.empty()
            ? default_velocity_candidates(caps, data.find("vx").field)
            : spec.velocity_candidates,
        spec.fof, spec.halo_tolerance, spec.velocity_tolerance, spec.options);
  }
  std::map<std::string, std::vector<CompressorConfig>> candidates;
  for (const auto& variable : data.variables) {
    if (variable.field.dims.rank() != 3) continue;
    candidates[variable.field.name] =
        spec.candidates.empty() ? default_grid_candidates(compressor.name(), variable.field)
                                : spec.candidates;
  }
  return optimize_grid_dataset(data, compressor, candidates, spec.tolerance, spec.k_fraction,
                               spec.options);
}

std::string format_optimization(const OptimizationResult& result) {
  std::string out;
  for (const auto& field : result.per_field) {
    out += strprintf("field %-22s", field.field.c_str());
    if (field.found) {
      out += strprintf(" best-fit %-14s ratio %6.2fx (metric dev %.4f)\n",
                       field.chosen.config.label().c_str(), field.chosen.ratio,
                       field.chosen.metric_deviation);
    } else {
      out += " no acceptable configuration among candidates\n";
    }
    for (const auto& c : field.candidates) {
      if (c.status == "skipped") {
        out += strprintf("    %-14s skipped (mode unsupported)\n", c.config.label().c_str());
        continue;
      }
      if (c.status == "failed") {
        out += strprintf("    %-14s FAILED: %s\n", c.config.label().c_str(), c.error.c_str());
        continue;
      }
      out += strprintf("    %-14s ratio %6.2fx PSNR %7.2f dB dev %.4f  %s%s\n",
                       c.config.label().c_str(), c.ratio, c.psnr_db, c.metric_deviation,
                       c.acceptable ? "OK" : "reject",
                       c.status == "pruned" ? " (pruned, predicted)" : "");
    }
  }
  out += strprintf("overall ratio: %.2fx (%s)\n", result.overall_ratio,
                   result.all_fields_ok ? "all fields acceptable"
                                        : "some fields lack an acceptable config");
  const OptimizerStats& s = result.stats;
  out += strprintf(
      "search: %zu candidates, %zu full evals (%zu probes), %zu pruned, "
      "%zu skipped, %zu failed, %zu rate estimates, %zu baseline cache hits, "
      "%.3f s\n",
      s.candidates, s.full_evals, s.probes, s.pruned, s.skipped, s.failed,
      s.rate_estimates, s.baseline_cache_hits, s.wall_seconds);
  return out;
}

}  // namespace cosmo::foresight
