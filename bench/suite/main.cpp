/// \file main.cpp
/// \brief foresight_bench: the repository benchmark.
///
/// Usage:
///   foresight_bench --workload <name|all> --seed S [--seconds N] [--trace]
///                   [--smoke] [--out FILE] [--benchmark BENCHMARK.json]
///   foresight_bench compare RUN.json... -- RUN.json... [--benchmark FILE]
///
/// One run sets its workload up several times (setup_s is the median), then
/// measures for --seconds with tracing off and reports the end-to-end
/// metrics. With --trace the time is split: half untraced, half with the
/// program's Tracer on, which adds the per-layer metrics and writes
/// bench-trace-<workload>.json next to the run JSON.
/// Every output is checked against an in-process reference; any failed
/// check exits 1. A build that is not Release, or a Tracer ring that
/// wrapped, exits 2 without numbers. `--workload all` runs each workload
/// in its own process, so peak_rss_mb is per workload.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "stats.hpp"
#include "suite.hpp"

extern char** environ;

#ifndef FBENCH_BUILD_TYPE
#define FBENCH_BUILD_TYPE "unknown"
#endif

namespace fbench {
namespace {

namespace json = cosmo::json;
using cosmo::telemetry::Tracer;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Options&, Checks&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"codec-snapshot", make_codec_snapshot},
    {"pipeline-optimize", make_pipeline_optimize},
    {"service-small", make_service_small},
    {"service-stream", make_service_stream},
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* span = nullptr;  ///< set: that span's self time over summed op time
};

/// Per-layer metrics, from the traced phase. A workload that bypasses a
/// layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    // codec kernels: share of op time in each kernel span
    {"sz.lorenzo_quantize.share", "fraction", "sz.lorenzo_quantize"},
    {"sz.huffman_encode.share", "fraction", "sz.huffman_encode"},
    {"sz.lzss_encode.share", "fraction", "sz.lzss_encode"},
    {"sz.pwrel.compress.share", "fraction", "sz.pwrel.compress"},
    {"zfp.block_scan.encode.share", "fraction", "zfp.block_scan.encode"},
    {"fz.compress.share", "fraction", "fz.compress"},
    {"sz.huffman_decode.share", "fraction", "sz.huffman_decode"},
    {"sz.lzss_decode.share", "fraction", "sz.lzss_decode"},
    {"sz.reconstruct.share", "fraction", "sz.reconstruct"},
    {"sz.pwrel.decompress.share", "fraction", "sz.pwrel.decompress"},
    {"zfp.block_scan.decode.share", "fraction", "zfp.block_scan.decode"},
    {"fz.decompress.share", "fraction", "fz.decompress"},
    // codec kernels at the session boundary, untraced
    {"codec.compress_mb_s", "MB/s"},
    {"codec.decompress_mb_s", "MB/s"},
    {"codec.compressed_bytes", "bytes"},
    {"sz-cpu.compress_mb_s", "MB/s"},
    {"sz-cpu.decompress_mb_s", "MB/s"},
    {"sz-cpu.speedup_4t", "ratio"},
    {"zfp-cpu.compress_mb_s", "MB/s"},
    {"zfp-cpu.decompress_mb_s", "MB/s"},
    {"zfp-cpu.speedup_4t", "ratio"},
    {"fz-cpu.compress_mb_s", "MB/s"},
    {"fz-cpu.decompress_mb_s", "MB/s"},
    {"fz-cpu.speedup_4t", "ratio"},
    // sessions
    {"session.overhead.share", "fraction"},
    {"arena.high_water_bytes", "bytes"},
    // optimizer and CBench, per repetition
    {"optimizer.full_evals", "count"},
    {"optimizer.probes", "count"},
    {"optimizer.pruned_candidates", "count"},
    {"optimizer.baseline_cache_hits", "count"},
    {"optimizer.eval_fraction", "fraction"},
    {"optimizer.worker_utilization", "fraction"},
    {"cbench.job.share", "fraction", "cbench.job"},
    // analysis
    {"analysis.fof.share", "fraction", "analysis.fof"},
    {"analysis.fof.calls", "count"},
    {"analysis.power_spectrum.share", "fraction", "analysis.power_spectrum"},
    {"fft.3d.share", "fraction", "fft.3d"},
    {"analysis.cic_deposit.share", "fraction", "analysis.cic_deposit"},
    // front-end
    {"pipeline.unattributed_share", "fraction", "bench.run_pipeline"},
    // foresightd
    {"foresightd.job.share", "fraction", "foresightd.job"},
    {"fsd.gen_lag.share", "fraction"},
    {"fsd.queue_wait.share", "fraction"},
    {"fsd.codec.share", "fraction"},
    {"fsd.unattributed.share", "fraction"},
    {"fsd.dataset_cache.hit_ratio", "fraction"},
    {"fsd.rejected", "count"},
    {"fsd.queue_high_water", "count"},
    {"fsd.upload.mb_s", "MB/s"},
    {"fsd.download.share", "fraction"},
    {"fsd.stream.codec_share", "fraction"},
    // the trace itself
    {"op.unattributed_share", "fraction"},
    {"tracing_overhead", "fraction"},
    {"trace.spans", "count"},
};

constexpr const char* kSessionSpans[] = {"sz-cpu.compress",  "sz-cpu.decompress",
                                         "zfp-cpu.compress", "zfp-cpu.decompress",
                                         "fz-cpu.compress",  "fz-cpu.decompress"};

/// glibc's mmap threshold, pinned. Left adaptive, glibc raises it to the
/// size of the first large block freed and from then on keeps freed
/// multi-MiB transfer buffers in per-thread arenas, in an order that
/// differs from run to run: service-stream's peak RSS then spread from 170
/// to 240 MiB. Pinned, blocks of 4 MiB and more go back to the system when
/// freed and peak_rss_mb follows the memory the program holds.
constexpr int kMmapThreshold = 4 << 20;

/// Tracer ring spans per traced second, so the ring grows with the run.
/// The busiest workload records about 1,100 a second at full size and
/// 10,000 in a smoke run.
constexpr double kTraceSpansPerSecond = 1 << 15;

int usage() {
  std::fprintf(stderr,
               "usage: foresight_bench --workload <codec-snapshot|pipeline-optimize|"
               "service-small|service-stream|all> --seed S [--seconds N] [--trace] [--smoke]\n"
               "                       [--out FILE] [--benchmark BENCHMARK.json]\n"
               "       foresight_bench compare RUN.json... -- RUN.json... "
               "[--benchmark BENCHMARK.json]\n");
  return 64;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

json::Object machine_info() {
  json::Object m;
  m["nproc"] = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::istringstream cpuinfo(read_file("/proc/cpuinfo"));
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      m["cpu_model"] = line.substr(line.find(':') + 2);
      break;
    }
  }
  json::Object caches;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (!std::filesystem::exists(dir)) break;
    const auto field = [&](const char* name) {
      std::string v = read_file(dir + "/" + name);
      while (!v.empty() && (v.back() == '\n' || v.back() == ' ')) v.pop_back();
      return v;
    };
    const std::string type = field("type");
    std::string name = "L";
    name += field("level");
    name += type == "Data" ? "d" : type == "Instruction" ? "i" : "";
    caches[name] = field("size");
  }
  m["caches"] = std::move(caches);
  return m;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

json::Object metric(double value, const char* unit) {
  return json::Object{{"value", value}, {"unit", unit}};
}

/// The op timing as reported, plus the highest percentile the sample count
/// supports, so a reader can see how far the declared tail is from it.
json::Object timing_json(const Timing& t) {
  return json::Object{{"n", t.n},
                      {"p50_ms", t.p50 * 1e3},
                      {"tail_quantile", t.tail_q},
                      {"tail_over_all_ops_ms", t.tail * 1e3},
                      {"tail_supported", t.tail_supported},
                      {"highest_supported_quantile", highest_supported_quantile(t.n)}};
}

/// Per-layer values from one traced phase's spans.
void layer_from_report(const TraceReport& r, LayerValues& layer) {
  const auto self = [&](const char* name) {
    const auto it = r.totals.find(name);
    return it == r.totals.end() ? 0.0 : it->second.self_s;
  };
  const double wall = r.ops_wall_s > 0.0 ? r.ops_wall_s : 1.0;
  const double ops = r.ops.empty() ? 1.0 : static_cast<double>(r.ops.size());
  for (const MetricDef& d : kPerLayer) {
    if (d.span != nullptr) layer[d.name] = self(d.span) / wall;
  }
  double session = 0.0;
  for (const char* name : kSessionSpans) session += self(name);
  layer["session.overhead.share"] = session / wall;
  const auto fof = r.totals.find("analysis.fof");
  layer["analysis.fof.calls"] = fof == r.totals.end() ? 0.0 : fof->second.count / ops;
  double unattributed = 0.0;
  for (const OpBreakdown& op : r.ops) unattributed += op.rows.at("unattributed");
  layer["op.unattributed_share"] = unattributed / wall;
  layer["trace.spans"] = static_cast<double>(r.spans);
  layer["arena.high_water_bytes"] = static_cast<double>(
      cosmo::telemetry::MetricsRegistry::instance().gauge("arena.high_water_bytes").max());
}

/// The run reports exactly the metrics BENCHMARK.json names, with its units.
void check_against_benchmark(const std::string& path, const json::Object& metrics,
                             const json::Object* per_layer, Checks& checks) {
  const json::Value bench = json::parse_file(path);
  const auto check = [&](const char* key, const json::Object& got) {
    std::size_t named = 0;
    for (const json::Value& m : bench.at(key).as_array()) {
      const std::string name = m.at("name").as_string();
      const auto it = got.find(name);
      checks.expect(it != got.end(), "metric " + name + " missing from the run");
      if (it == got.end()) continue;
      ++named;
      checks.expect(it->second.get("unit", std::string()) == m.at("unit").as_string(),
                    "metric " + name + " reports another unit than " + path);
    }
    checks.expect(named == got.size(), std::string("the run reports ") + key +
                                           " metrics that " + path + " does not name");
  };
  check("end_to_end", metrics);
  if (per_layer != nullptr) check("per_layer", *per_layer);
}

int run_one(const cosmo::CliArgs& args) {
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.smoke = args.has("smoke");
  opt.seconds = args.get_double("seconds", opt.smoke ? 2.0 : 20.0);
  const bool traced = args.get("trace", "0") != "0";
  const std::string out = args.get("out", "bench_out/suite/" + opt.workload + ".json");

  const WorkloadEntry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) entry = &w;
  }
  if (entry == nullptr || opt.seconds <= 0.0) return usage();

  const std::filesystem::path out_dir = std::filesystem::path(out).parent_path();
  opt.work_dir = out_dir.empty() ? "." : out_dir.string();
  std::filesystem::create_directories(opt.work_dir);

  Checks checks;
  const std::unique_ptr<Workload> workload = entry->make(opt, checks);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.smoke ? 1 : 3); ++rep) {
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    setup_s.push_back(since(t0));
  }

  Trace trace;
  const double phase_seconds = traced ? opt.seconds / 2 : opt.seconds;
  const Measurement base = workload->measure(phase_seconds, trace);
  LayerValues layer = base.layer;
  std::size_t attempted = base.attempted;
  std::size_t failed = base.failed;
  json::Object report_json;
  if (traced) {
    cosmo::telemetry::MetricsRegistry::instance().reset();
    trace.start(static_cast<std::size_t>(kTraceSpansPerSecond * std::max(phase_seconds, 1.0)));
    const Measurement phase = workload->measure(phase_seconds, trace);
    trace.stop();
    if (Tracer::dropped() > 0) {
      std::fprintf(stderr, "foresight_bench: the Tracer ring wrapped (%zu spans lost)\n",
                   Tracer::dropped());
      return 2;
    }
    const TraceReport report = trace.analyze();
    attempted += phase.attempted;
    failed += phase.failed;
    for (const auto& [name, value] : phase.layer) layer[name] = value;
    layer_from_report(report, layer);
    workload->from_trace(report, layer);
    const double untraced_p50 = median(base.op_seconds);
    layer["tracing_overhead"] =
        untraced_p50 > 0.0 ? median(phase.op_seconds) / untraced_p50 - 1.0 : 0.0;
    checks.expect(report.unbalanced_ops == 0,
                  std::to_string(report.unbalanced_ops) +
                      " ops whose breakdown rows miss their wall time by more than 5 %");
    const std::string trace_path =
        (std::filesystem::path(opt.work_dir) / ("bench-trace-" + opt.workload + ".json"))
            .string();
    std::ofstream(trace_path) << report.chrome_json;
    report_json["trace_file"] = trace_path;
    report_json["ops"] = report.ops.size();
    report_json["spans"] = report.spans;
    report_json["spans_per_second"] = static_cast<double>(report.spans) / phase_seconds;
  }
  workload->finish(layer);

  const Timing op = summarize(base.op_seconds, workload->tail_quantile());
  json::Object metrics;
  metrics["setup_s"] = metric(median(setup_s), "s");
  metrics["op_p50_ms"] = metric(op.p50 * 1e3, "ms");
  metrics["op_tail_ms"] =
      metric((base.op_tail_seconds >= 0.0 ? base.op_tail_seconds : op.tail) * 1e3, "ms");
  metrics["throughput_mb_s"] = metric(base.throughput_mb_s, "MB/s");
  metrics["compression_ratio"] =
      metric(base.compressed_bytes > 0.0 ? base.raw_bytes / base.compressed_bytes : 0.0, "ratio");
  metrics["peak_rss_mb"] = metric(peak_rss_mib(), "MiB");

  json::Object per_layer;
  if (traced) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = layer.find(d.name);
      per_layer[d.name] = metric(it == layer.end() ? 0.0 : it->second, d.unit);
    }
    for (const auto& [name, value] : layer) {
      checks.expect(per_layer.count(name) == 1, "per-layer value " + name + " has no catalog entry");
    }
  }
  if (args.has("benchmark")) {
    check_against_benchmark(args.get("benchmark", ""), metrics, traced ? &per_layer : nullptr,
                            checks);
  }
  checks.expect(attempted > 0, "no op was attempted");

  const bool correct = checks.failures() == 0;
  json::Array failures;
  for (const std::string& msg : checks.messages()) failures.push_back(msg);
  json::Array setups;
  for (const double s : setup_s) setups.push_back(s);
  json::Object run{{"schema", "foresight-bench-run/1"},
                   {"workload", opt.workload},
                   {"seed", static_cast<double>(opt.seed)},
                   {"seconds", opt.seconds},
                   {"trace", traced},
                   {"smoke", opt.smoke},
                   {"build_type", FBENCH_BUILD_TYPE},
                   {"malloc_mmap_threshold_bytes", kMmapThreshold},
                   {"machine", machine_info()},
                   {"working_set_bytes", workload->working_set_bytes()},
                   {"correct", correct},
                   {"attempted", attempted},
                   {"failed", failed},
                   {"error_rate", static_cast<double>(failed) / std::max<std::size_t>(attempted, 1)},
                   {"check_failures", std::move(failures)},
                   {"setup_reps_s", std::move(setups)},
                   {"op", timing_json(op)},
                   {"metrics", metrics},
                   {"detail", base.detail}};
  if (traced) {
    run["per_layer"] = per_layer;
    run["trace_report"] = report_json;
  }
  std::ofstream(out) << json::Value(run).dump(2) << "\n";

  std::printf("foresight_bench %s seed=%llu: %s (%zu attempted, %zu failed)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              correct ? "correct" : "INCORRECT", attempted, failed);
  const auto print = [](const json::Object& group) {
    for (const auto& [name, m] : group) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), m.at("value").as_number(),
                  m.at("unit").as_string().c_str());
    }
  };
  print(metrics);
  std::printf("  (op n=%zu, tail p%g%s)\n", op.n, op.tail_q * 100,
              op.tail_supported ? "" : " has fewer than 10 samples beyond it");
  if (traced) print(per_layer);
  for (const std::string& msg : checks.messages()) std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  std::printf("run JSON: %s\n", out.c_str());
  return correct ? 0 : 1;
}

/// Runs every workload in its own process and returns the worst exit code.
int run_all(int argc, char** argv, const cosmo::CliArgs& args) {
  const std::string out = args.get("out", "bench_out/suite/run.json");
  const std::string stem = out.size() > 5 && out.ends_with(".json") ? out.substr(0, out.size() - 5) : out;
  int worst = 0;
  for (const WorkloadEntry& w : kWorkloads) {
    std::vector<std::string> child{"/proc/self/exe"};
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload" || a == "--out") {
        ++i;
        continue;
      }
      if (a.rfind("--workload=", 0) == 0 || a.rfind("--out=", 0) == 0) continue;
      child.push_back(a);
    }
    child.insert(child.end(), {"--workload", w.name, "--out", stem + "-" + w.name + ".json"});
    std::vector<char*> cargv;
    for (std::string& s : child) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(), environ) != 0) {
      std::fprintf(stderr, "foresight_bench: cannot start the %s run\n", w.name);
      return 1;
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace
}  // namespace fbench

int main(int argc, char** argv) {
  ::mallopt(M_MMAP_THRESHOLD, fbench::kMmapThreshold);
  if (argc > 1 && std::string(argv[1]) == "compare") {
    return fbench::compare_runs(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (std::string(FBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "foresight_bench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 FBENCH_BUILD_TYPE);
    return 2;
  }
  const cosmo::CliArgs args(argc, argv);
  try {
    if (args.get("workload", "") == "all") return fbench::run_all(argc, argv, args);
    return fbench::run_one(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "foresight_bench: fatal: %s\n", e.what());
    return 1;
  }
}
