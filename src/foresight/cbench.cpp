#include "foresight/cbench.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/fault.hpp"
#include "common/str.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace cosmo::foresight {

OnError parse_on_error(const std::string& text) {
  if (text == "abort") return OnError::kAbort;
  if (text == "continue") return OnError::kContinue;
  throw InvalidArgument("on_error must be \"continue\" or \"abort\", got \"" + text +
                        "\"");
}

namespace {

/// Identity-only row for a job that threw while the sweep was configured to
/// continue: metrics stay zeroed and the error travels with the row.
CBenchResult failed_result(const std::string& dataset, const Field& field,
                           const std::string& compressor, const CompressorConfig& config,
                           const std::string& what) {
  CBenchResult r;
  r.dataset = dataset;
  r.field = field.name;
  r.compressor = compressor;
  r.config = config;
  r.original_bytes = field.bytes();
  r.status = "failed";
  r.error = what;
  r.throughput_reportable = false;
  telemetry::MetricsRegistry::instance().counter("cbench.failed_jobs").add();
  return r;
}

}  // namespace

CBenchResult CBench::run_one(const Field& field, Compressor& compressor,
                             const CompressorConfig& config) const {
  const PoolHandle intra(options_.session_threads);
  const std::unique_ptr<CodecSession> session =
      compressor.open_session(nullptr, intra.get());
  try {
    return run_session(field, compressor.name(), *session, config);
  } catch (const Error& e) {
    if (options_.on_error == Options::OnError::kAbort) throw;
    return failed_result(options_.dataset_name, field, compressor.name(), config,
                         e.what());
  }
}

CBenchResult CBench::run_session(const Field& field, const std::string& compressor_name,
                                 CodecSession& session,
                                 const CompressorConfig& config) const {
  CompressResult c;
  DecompressResult d;
  return run_session(field, compressor_name, session, config, c, d);
}

CBenchResult CBench::run_session(const Field& field, const std::string& compressor_name,
                                 CodecSession& session, const CompressorConfig& config,
                                 CompressResult& c, DecompressResult& d) const {
  TRACE_SPAN("cbench.job");
  session.compress(field, config, c);
  // Fault-injection hook: an active plan may corrupt the stream between the
  // stages, exactly where a storage or transport error would hit it. The
  // decode below must then either reconstruct bit-exactly or throw a
  // cosmo::Error — never crash (see docs/architecture.md, failure
  // containment). Off by default: one relaxed atomic load when no plan is
  // installed.
  if (auto* plan = fault::active()) plan->corrupt(c.bytes);
  session.decompress(c, d);
  if (d.values.size() != field.data.size()) {
    throw InvalidArgument("cbench: reconstruction size mismatch from " + compressor_name);
  }

  CBenchResult r;
  r.dataset = options_.dataset_name;
  r.field = field.name;
  r.compressor = compressor_name;
  r.config = config;
  r.original_bytes = field.bytes();
  r.compressed_bytes = c.bytes.size();
  r.ratio = analysis::compression_ratio(r.original_bytes, r.compressed_bytes);
  r.bit_rate = static_cast<double>(r.compressed_bytes) * 8.0 /
               static_cast<double>(field.data.size());
  r.distortion = analysis::compare(field.data, d.values);
  r.compress = c.telemetry;
  r.decompress = d.telemetry;
  r.compress_gbps = throughput_gbps(r.original_bytes, c.telemetry.seconds);
  r.decompress_gbps = throughput_gbps(r.original_bytes, d.telemetry.seconds);
  r.throughput_reportable = c.throughput_reportable && !d.telemetry.cpu_fallback;
  if (options_.keep_reconstructed) {
    r.reconstructed = std::move(d.values);  // regrown by the next decompress
  }
  auto& metrics = telemetry::MetricsRegistry::instance();
  metrics.counter("cbench.jobs").add();
  metrics.counter("cbench.bytes_in").add(r.original_bytes);
  metrics.counter("cbench.bytes_out").add(r.compressed_bytes);
  metrics.histogram("cbench.compress_seconds").observe_seconds(r.compress.seconds);
  metrics.histogram("cbench.decompress_seconds").observe_seconds(r.decompress.seconds);
  return r;
}

std::vector<CBenchResult> CBench::sweep(
    const io::Container& container, Compressor& compressor,
    const std::vector<CompressorConfig>& configs,
    const std::function<bool(const std::string&)>& field_filter) const {
  // Scheduler-level spans carry the "sweep." prefix: their count depends on
  // the worker count, unlike the per-job codec spans, and the telemetry
  // tests exclude them when comparing traces across thread counts.
  TRACE_SPAN("sweep.run");
  // Jobs are enumerated (and slotted) up front in field-major, config-minor
  // order; workers claim indices from an atomic cursor, so the output order
  // never depends on the schedule.
  struct Job {
    const Field* field;
    const CompressorConfig* config;
  };
  std::vector<Job> jobs;
  for (const auto& variable : container.variables) {
    if (field_filter && !field_filter(variable.field.name)) continue;
    for (const auto& config : configs) {
      jobs.push_back({&variable.field, &config});
    }
  }
  std::vector<CBenchResult> results(jobs.size());

  const std::string name = compressor.name();
  const bool serial =
      options_.threads == 1 || !compressor.concurrent_sessions_safe() || jobs.size() <= 1;
  if (serial) {
    // One session runs at a time, so intra-field threading is free to use
    // the whole knob. (The simulated-GPU codecs ignore the pool.)
    const PoolHandle intra(options_.session_threads);
    const std::unique_ptr<CodecSession> session =
        compressor.open_session(nullptr, intra.get());
    CompressResult c;
    DecompressResult d;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        results[i] = run_session(*jobs[i].field, name, *session, *jobs[i].config, c, d);
      } catch (const Error& e) {
        if (options_.on_error == Options::OnError::kAbort) throw;
        results[i] = failed_result(options_.dataset_name, *jobs[i].field, name,
                                   *jobs[i].config, e.what());
      }
    }
    return results;
  }

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool;
  if (options_.threads == 0) {
    pool = &global_pool();
  } else {
    // A dedicated pool never needs more threads than there are jobs (this
    // also bounds absurd requests, e.g. a negative count cast to size_t).
    owned = std::make_unique<ThreadPool>(std::min(options_.threads, jobs.size()));
    pool = owned.get();
  }

  std::atomic<std::size_t> cursor{0};
  const std::size_t workers = std::min(pool->size(), jobs.size());
  std::vector<std::future<void>> done;
  done.reserve(workers);
  Timer queue_timer;
  for (std::size_t w = 0; w < workers; ++w) {
    done.push_back(pool->submit([&] {
      // Time from submit until the pool actually starts the worker — the
      // sweep's scheduling latency.
      telemetry::MetricsRegistry::instance()
          .histogram("sweep.queue_wait_seconds")
          .observe_seconds(queue_timer.seconds());
      TRACE_SPAN("sweep.worker");
      // Each worker gets its own session (arena, scratch) — sessions are
      // not thread-safe, and per-worker arenas keep reuse contention-free.
      // Sessions stay serial here: the jobs themselves occupy the pool, and
      // stacking intra-field fan-out on top would only oversubscribe.
      const std::unique_ptr<CodecSession> session = compressor.open_session();
      CompressResult c;
      DecompressResult d;
      for (std::size_t i = cursor.fetch_add(1); i < jobs.size();
           i = cursor.fetch_add(1)) {
        try {
          results[i] = run_session(*jobs[i].field, name, *session, *jobs[i].config, c, d);
        } catch (const Error& e) {
          if (options_.on_error == Options::OnError::kAbort) throw;
          results[i] = failed_result(options_.dataset_name, *jobs[i].field, name,
                                     *jobs[i].config, e.what());
        }
      }
    }));
  }
  for (auto& f : done) f.get();  // rethrows the first worker exception
  return results;
}

double CBench::overall_ratio(const std::vector<CBenchResult>& results) {
  require(!results.empty(), "overall_ratio: no results");
  std::size_t original = 0;
  std::size_t compressed = 0;
  for (const auto& r : results) {
    if (r.status != "ok") continue;  // failed rows carry no stream
    original += r.original_bytes;
    compressed += r.compressed_bytes;
  }
  require(compressed > 0, "overall_ratio: no successful results");
  return analysis::compression_ratio(original, compressed);
}

/// The flags column: host-fallback and device-retry facts at a glance.
/// "cpu-fb" = a stage degraded to the host codec, "xN" = N device attempts
/// (transient-fault retries), "-" = a clean run.
std::string result_flags(const CBenchResult& r) {
  std::string flags;
  if (r.cpu_fallback()) flags = "cpu-fb";
  if (r.device_attempts() > 1) {
    if (!flags.empty()) flags += ",";
    flags += strprintf("x%d", r.device_attempts());
  }
  return flags.empty() ? "-" : flags;
}

std::string format_results(const std::vector<CBenchResult>& results) {
  std::string out;
  out += strprintf("%-22s %-10s %-16s %8s %8s %9s %10s %10s %-9s\n", "field", "codec",
                   "config", "ratio", "bitrate", "PSNR(dB)", "comp GB/s", "dec GB/s",
                   "flags");
  out += std::string(110, '-') + "\n";
  for (const auto& r : results) {
    if (r.status != "ok") {
      out += strprintf("%-22s %-10s %-16s FAILED: %s\n", r.field.c_str(),
                       r.compressor.c_str(), r.config.label().c_str(), r.error.c_str());
      continue;
    }
    const std::string comp_thr = r.throughput_reportable
                                     ? strprintf("%10.2f", r.compress_gbps)
                                     : strprintf("%10s", "N/A");
    const std::string dec_thr = r.throughput_reportable
                                    ? strprintf("%10.2f", r.decompress_gbps)
                                    : strprintf("%10s", "N/A");
    out += strprintf("%-22s %-10s %-16s %8.2f %8.3f %9.2f %s %s %-9s\n", r.field.c_str(),
                     r.compressor.c_str(), r.config.label().c_str(), r.ratio, r.bit_rate,
                     r.distortion.psnr_db, comp_thr.c_str(), dec_thr.c_str(),
                     result_flags(r).c_str());
  }
  return out;
}

}  // namespace cosmo::foresight
