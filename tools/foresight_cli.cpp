/// \file foresight_cli.cpp
/// \brief The `foresight` command-line tool: the paper's workflow ("By only
/// configuring a simple JSON file, Foresight can automatically evaluate
/// diverse compression configurations...") exposed as a shippable CLI.
///
/// Subcommands:
///   devices                         print Table I and the kernel model
///   codecs                          print the codec table (capabilities)
///   generate --type nyx|hacc --out F [--dim N] [--particles N] [--seed S]
///   info <file>                     describe a container (Table II style)
///   compress --codec C --mode M --value V --input F [--field NAME] [--gpu G]
///   estimate --input F --field NAME --bound B [--stride N]
///   optimize --codec C [--input F | --type nyx|hacc] [--search guided] ...
///                                   Section V-D best-fit configuration search
///   run <config.json>               run the full JSON pipeline
///                                   (--trace-out/--metrics-out enable the
///                                   telemetry layer for the run)
///   trace-check <trace.json>        validate a Chrome trace export
///   daemon <ping|hello|metrics|shutdown|submit> --socket ENDPOINT
///                                   talk to a running foresightd over
///                                   AF_UNIX (a path) or tcp:HOST:PORT
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "cosmo/dataset_info.hpp"
#include "foresight/cbench.hpp"
#include "foresight/optimizer.hpp"
#include "foresight/pipeline.hpp"
#include "foresight/report.hpp"
#include "foresightd/api.hpp"
#include "foresightd/client.hpp"
#include "json/json.hpp"
#include "gpu/specs.hpp"
#include "sz/rate_estimate.hpp"

using namespace cosmo;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: foresight_cli <command> [options]\n"
               "  devices\n"
               "  codecs\n"
               "  generate --type nyx|hacc --out FILE [--dim N] [--particles N] [--seed S]\n"
               "  info FILE\n"
               "  compress --codec NAME --mode MODE --value V --input FILE [--field NAME] [--gpu NAME] [--threads N]\n"
               "  estimate --input FILE --field NAME --bound B [--stride N]\n"
               "  optimize --codec NAME [--input FILE | --type nyx|hacc [--dim N] "
               "[--particles N] [--seed S]]\n"
               "           [--gpu NAME] [--search exhaustive|guided] [--probes K] "
               "[--threads N]\n"
               "           [--tolerance T] [--k-fraction F] [--halo-tolerance T] "
               "[--velocity-tolerance T]\n"
               "           [--linking-length L] [--min-members N]\n"
               "  run CONFIG.json [--fail-fast] [--trace-out FILE] [--metrics-out FILE]\n"
               "  trace-check TRACE.json\n"
               "  daemon ping|hello|metrics|shutdown --socket ENDPOINT\n"
               "  daemon submit --socket ENDPOINT --codec NAME [--job roundtrip|compress]\n"
               "      (ENDPOINT: a unix socket path or tcp:HOST:PORT)\n"
               "         [--mode M --value V] [--type nyx|hacc] [--dim N] [--particles N]\n"
               "         [--seed S] [--field NAME] [--deadline SECONDS] [--priority P]\n"
               "dataset defaults (generate, optimize, daemon submit): --type nyx;\n"
               "  nyx --dim 64 --seed 42; hacc --particles 100000 --seed 7\n");
  return 2;
}

/// The dataset the flags describe: --input F is {"type": "file", "path": F},
/// else --type (nyx) with whichever of --dim, --particles and --seed were
/// given. build_dataset (here or in foresightd) supplies every default.
json::Value dataset_spec(const CliArgs& args) {
  if (args.has("input")) return foresightd::file_dataset(args.get("input", ""));
  json::Object spec{{"type", args.get("type", "nyx")}};
  for (const char* knob : {"dim", "particles", "seed"}) {
    if (args.has(knob)) spec[knob] = static_cast<double>(args.get_count(knob, 0));
  }
  return json::Value(std::move(spec));
}

int cmd_devices() {
  std::printf("%s", gpu::format_table1().c_str());
  return 0;
}

/// Prints the codec table — one row per compressor with its capabilities,
/// so scripts (and check.sh) can assert on the roster without hard-coding
/// names.
int cmd_codecs() {
  std::printf("%-8s %-26s %-7s %-11s %-11s %-8s %s\n", "name", "modes", "device",
              "concurrent", "throughput", "profile", "summary");
  for (const auto& name : foresight::available_compressors()) {
    const auto& caps = foresight::codec_capabilities(name);
    std::printf("%-8s %-26s %-7s %-11s %-11s %-8s %s\n", caps.name.c_str(),
                caps.modes_label().c_str(), caps.needs_device() ? "sim" : "host",
                caps.concurrent_sessions_safe() ? "yes" : "no",
                caps.throughput_reportable ? "reported" : "n/a",
                caps.kernel_profile.empty() ? "-" : caps.kernel_profile.c_str(),
                caps.summary.c_str());
  }
  // Map each kernel profile to its rows in BENCH_kernels.json so a codec's
  // end-to-end numbers can be cross-read against the per-kernel bench.
  std::vector<std::string> profiles;
  for (const auto& name : foresight::available_compressors()) {
    const auto& caps = foresight::codec_capabilities(name);
    if (caps.kernel_profile.empty()) continue;
    if (std::find(profiles.begin(), profiles.end(), caps.kernel_profile) != profiles.end())
      continue;
    profiles.push_back(caps.kernel_profile);
  }
  if (!profiles.empty()) {
    std::printf("\nbench rows (BENCH_kernels.json):\n");
    for (const auto& p : profiles) {
      std::printf("  %-8s -> %s_encode / %s_decode\n", p.c_str(), p.c_str(), p.c_str());
    }
  }
  return 0;
}

int cmd_generate(const CliArgs& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const auto c = foresight::build_dataset(dataset_spec(args));
  io::save(c, out,
           foresight::is_particle_container(c) ? io::Dialect::kGenericIo
                                               : io::Dialect::kHdf5Lite);
  std::printf("wrote %s (%s)\n", out.c_str(), human_bytes(c.payload_bytes()).c_str());
  return 0;
}

int cmd_info(const CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "info: missing file argument\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  const auto c = io::load(path);
  const auto dialect = io::probe_dialect(path);
  std::printf("%s (%s dialect)\n\n", path.c_str(),
              dialect == io::Dialect::kGenericIo ? "GenericIO-lite" : "HDF5-lite");
  std::printf("%s", format_table({describe(c, path)}).c_str());
  return 0;
}

int cmd_compress(const CliArgs& args) {
  const std::string codec_name = args.get("codec", "sz-cpu");
  const std::string mode = args.get("mode", "abs");
  const double value = args.get_double("value", 0.0);
  const std::string input = args.get("input", "");
  if (input.empty() || value == 0.0) {
    std::fprintf(stderr, "compress: --input and --value are required\n");
    return 2;
  }
  const std::size_t threads = args.get_count("threads", 1);
  const auto data = io::load(input);
  gpu::GpuSimulator sim(gpu::find_device(args.get("gpu", "Tesla V100")));
  const auto codec = foresight::make_compressor(codec_name, &sim);
  // One knob serves both levels: a multi-field sweep parallelizes across
  // fields (sessions serial); a single-field run falls back to the serial
  // sweep path, where session_threads fans the codec kernels out instead.
  foresight::CBench bench({.keep_reconstructed = false, .dataset_name = input,
                           .threads = threads, .session_threads = threads});

  const std::string only_field = args.get("field", "");
  const auto field_filter = [&only_field](const std::string& name) {
    return only_field.empty() || name == only_field;
  };
  std::vector<foresight::CBenchResult> results =
      bench.sweep(data, *codec, {{mode, value}}, field_filter);
  if (results.empty()) {
    std::fprintf(stderr, "compress: no matching fields\n");
    return 2;
  }
  std::printf("%s", foresight::format_results(results).c_str());
  std::printf("overall ratio: %.2fx\n", foresight::CBench::overall_ratio(results));
  return 0;
}

int cmd_estimate(const CliArgs& args) {
  const std::string input = args.get("input", "");
  const std::string field_name = args.get("field", "");
  const double bound = args.get_double("bound", 0.0);
  if (input.empty() || field_name.empty() || bound <= 0.0) {
    std::fprintf(stderr, "estimate: --input, --field and --bound are required\n");
    return 2;
  }
  const std::size_t stride = args.get_count("stride", 1);
  if (stride < 1) {
    std::fprintf(stderr, "estimate: --stride must be >= 1 (got %zu)\n", stride);
    return 2;
  }
  const auto data = io::load(input);
  const Field& field = data.find(field_name).field;
  sz::Params params;
  params.abs_error_bound = bound;
  const auto est = sz::estimate_rate(field.data, field.dims, params, stride);
  std::printf("field %s, abs bound %g:\n", field_name.c_str(), bound);
  std::printf("  code entropy        %.3f bits/value\n", est.entropy_bits_per_value);
  std::printf("  unpredictable       %.2f%%\n", 100.0 * est.unpredictable_fraction);
  std::printf("  estimated bitrate   %.3f bits/value (~%.2fx ratio)\n",
              est.estimated_bits_per_value, 32.0 / est.estimated_bits_per_value);
  if (est.sampled_blocks != est.total_blocks) {
    std::printf("  sampled             %zu of %zu blocks (stride %zu)\n",
                est.sampled_blocks, est.total_blocks, stride);
  }
  return 0;
}

int cmd_optimize(const CliArgs& args) {
  foresight::OptimizeSpec spec;
  spec.codec = args.get("codec", "");
  if (spec.codec.empty()) {
    std::fprintf(stderr, "optimize: --codec is required\n");
    return 2;
  }
  foresight::OptimizerOptions& options = spec.options;
  options.search = foresight::parse_search_mode(
      args.get("search", foresight::search_mode_label(options.search)));
  options.probes = args.get_count("probes", options.probes);
  options.threads = args.get_count("threads", options.threads);
  spec.tolerance = args.get_double("tolerance", spec.tolerance);
  spec.k_fraction = args.get_double("k-fraction", spec.k_fraction);
  spec.halo_tolerance = args.get_double("halo-tolerance", spec.halo_tolerance);
  spec.velocity_tolerance = args.get_double("velocity-tolerance", spec.velocity_tolerance);
  spec.fof.linking_length = args.get_double("linking-length", spec.fof.linking_length);
  spec.fof.min_members = args.get_count("min-members", spec.fof.min_members);

  const io::Container data = [&] {
    const PoolHandle build_pool(options.threads);
    return foresight::build_dataset(dataset_spec(args), UINT64_MAX, build_pool.get());
  }();
  gpu::GpuSimulator sim(gpu::find_device(args.get("gpu", "Tesla V100")));
  const auto codec = foresight::make_compressor(spec.codec, &sim);
  const auto result = foresight::optimize_dataset(data, *codec, spec);
  std::printf("search mode: %s\n%s", foresight::search_mode_label(options.search).c_str(),
              foresight::format_optimization(result).c_str());
  return result.all_fields_ok ? 0 : 1;
}

int cmd_run(const CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "run: missing config file\n");
    return 2;
  }
  json::Value config = json::parse_file(args.positional()[1]);
  // --fail-fast overrides the config with on_error "abort": a failed job
  // fails the run (exit 1) and skips the analysis and cinema jobs that
  // depend on it; the other independent jobs still run and report rows.
  if (args.has("fail-fast")) config.as_object()["on_error"] = "abort";
  // --trace-out / --metrics-out layer the telemetry knob over the config
  // (the flag wins over a conflicting config entry).
  if (args.has("trace-out") || args.has("metrics-out")) {
    json::Object& root = config.as_object();
    if (!root["telemetry"].is_object()) root["telemetry"] = json::Object{};
    json::Object& t = root["telemetry"].as_object();
    if (args.has("trace-out")) t["trace_out"] = args.get("trace-out", "trace.json");
    if (args.has("metrics-out")) t["metrics_out"] = args.get("metrics-out", "metrics.json");
  }
  const auto summary = foresight::run_pipeline(config);
  std::printf("%s", foresight::format_results(summary.results).c_str());
  if (summary.failed_jobs > 0 || summary.injected_faults > 0) {
    std::printf("failed jobs: %zu of %zu (injected faults: %zu)\n", summary.failed_jobs,
                summary.results.size(), summary.injected_faults);
  }
  for (const auto& [key, dev] : summary.pk_deviation) {
    std::printf("pk  %-55s %.5f\n", key.c_str(), dev);
  }
  for (const auto& [key, dev] : summary.halo_deviation) {
    std::printf("halo %-54s %.5f\n", key.c_str(), dev);
  }
  for (const auto& [key, s] : summary.ssim) {
    std::printf("ssim %-54s %.5f\n", key.c_str(), s);
  }
  if (summary.optimization) {
    std::printf("--- optimizer ---\n%s",
                foresight::format_optimization(*summary.optimization).c_str());
  }
  foresight::write_markdown_report(summary, summary.output_dir + "/report.md");
  std::printf("outputs: %s (incl. report.md)\n", summary.output_dir.c_str());
  if (!summary.trace_path.empty()) std::printf("trace: %s\n", summary.trace_path.c_str());
  if (!summary.metrics_path.empty()) {
    std::printf("metrics: %s\n", summary.metrics_path.c_str());
  }
  return summary.workflow_ok ? 0 : 1;
}

/// Validates a Chrome trace_event export: well-formed JSON, every event a
/// complete ("X") event with name/ts/dur/pid/tid, and per-(pid, tid) span
/// nesting consistent with the recorded args.depth (a span at depth d+1 must
/// lie inside the most recent open span at depth d). Prints a one-line
/// summary so check.sh --trace-smoke can assert on coverage.
int cmd_trace_check(const CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "trace-check: missing trace file\n");
    return 2;
  }
  const json::Value trace = json::parse_file(args.positional()[1]);
  const json::Array& events = trace.at("traceEvents").as_array();
  std::map<long, std::vector<std::pair<double, double>>> open;  // tid -> stack of [ts, end)
  std::map<std::string, std::size_t> by_name;
  // Events are exported sorted by start time, so a simple per-thread stack
  // replay checks the nesting claim.
  for (const auto& ev : events) {
    if (ev.get("ph", std::string()) != "X") {
      std::fprintf(stderr, "trace-check: non-complete event found\n");
      return 1;
    }
    const std::string name = ev.at("name").as_string();
    const double ts = ev.at("ts").as_number();
    const double dur = ev.at("dur").as_number();
    const long tid = ev.at("tid").as_int();
    const auto depth = static_cast<std::size_t>(ev.at("args").get("depth", -1.0));
    ++by_name[name];
    auto& stack = open[tid];
    while (!stack.empty() && ts >= stack.back().second) stack.pop_back();
    if (depth != stack.size()) {
      std::fprintf(stderr, "trace-check: '%s' at ts=%.3f claims depth %zu, stack is %zu\n",
                   name.c_str(), ts, depth, stack.size());
      return 1;
    }
    if (!stack.empty() && ts + dur > stack.back().second + 1e-9) {
      std::fprintf(stderr, "trace-check: '%s' at ts=%.3f overflows its parent span\n",
                   name.c_str(), ts);
      return 1;
    }
    stack.emplace_back(ts, ts + dur);
  }
  std::printf("trace-check: %zu events, %zu distinct spans, %zu threads\n", events.size(),
              by_name.size(), open.size());
  for (const auto& [name, count] : by_name) {
    std::printf("  %-32s %zu\n", name.c_str(), count);
  }
  return events.empty() ? 1 : 0;
}

/// Talks to a running foresightd over AF_UNIX or TCP ("tcp:host:port"):
/// control requests (ping/hello/metrics/shutdown) or a single synchronous
/// job submission through the typed API, response printed as JSON.
int cmd_daemon(const CliArgs& args) {
  const auto& positional = args.positional();
  const std::string action = positional.size() > 1 ? positional[1] : "";
  const std::string socket = args.get("socket", "");
  if (socket.empty() || action.empty()) {
    std::fprintf(stderr, "daemon: an action and --socket ENDPOINT are required\n");
    return 2;
  }
  foresightd::Client client(socket);
  json::Value reply;
  if (action == "ping") {
    reply = client.ping();
  } else if (action == "hello") {
    const foresightd::HelloReply hello = client.hello();
    std::printf("proto %d.%d  max_frame %llu  chunk %llu  max_transfer %llu%s\n",
                hello.proto_major, hello.proto_minor,
                static_cast<unsigned long long>(hello.max_frame_bytes),
                static_cast<unsigned long long>(hello.chunk_bytes),
                static_cast<unsigned long long>(hello.max_transfer_bytes),
                hello.draining ? "  (draining)" : "");
    return 0;
  } else if (action == "metrics") {
    reply = client.metrics();
  } else if (action == "shutdown") {
    reply = client.shutdown();
  } else if (action == "submit") {
    // Compress and roundtrip jobs carry the same fields; only the type differs.
    const foresightd::CompressRequest request{
        .codec = args.get("codec", "sz-cpu"),
        .mode = args.get("mode", "abs"),
        .value = args.get_double("value", 0.1),
        .dataset = dataset_spec(args),
        .field = args.get("field", "baryon_density"),
        .options = {.deadline_seconds = args.get_double("deadline", 0.0),
                    .priority = static_cast<int>(args.get_int("priority", 1))}};
    foresightd::JobRequest wire = request.to_request(1);
    if (args.get("job", "roundtrip") != "compress") {
      wire.type = foresightd::RequestType::kRoundtrip;
    }
    const foresightd::JobReply typed = client.call_reply(wire);
    std::printf("%s\n", typed.raw.dump(2).c_str());
    return typed.ok() ? 0 : 1;
  } else {
    std::fprintf(stderr, "daemon: unknown action '%s'\n", action.c_str());
    return 2;
  }
  std::printf("%s\n", reply.dump(2).c_str());
  return reply.get("status", std::string("ok")) == "ok" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const CliArgs args(argc, argv);
  try {
    if (command == "devices") return cmd_devices();
    if (command == "codecs") return cmd_codecs();
    if (command == "generate") return cmd_generate(args);
    if (command == "info") return cmd_info(args);
    if (command == "compress") return cmd_compress(args);
    if (command == "estimate") return cmd_estimate(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "run") return cmd_run(args);
    if (command == "trace-check") return cmd_trace_check(args);
    if (command == "daemon") return cmd_daemon(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "foresight_cli %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
