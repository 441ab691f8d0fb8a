/// \file daemon_stress.cpp
/// \brief foresightd stress harness: many clients, mixed codecs, injected
/// faults, zero cross-job interference.
///
/// In-process mode (default) runs the full acceptance scenario:
///
///  1. Computes single-shot reference streams (crc32 + size) for every
///     codec with no daemon and no fault plan active.
///  2. Starts a Daemon with seeded fault injection (stream corruption,
///     GPU transients, device OOM) and a bounded queue.
///  3. Spawns N client threads, each pipelining a windowed job mix over its
///     own connection: roundtrips across all six codecs, sweep jobs,
///     already-expired-deadline jobs, enough in flight to overrun admission.
///  4. Asserts the robustness contract: every request gets exactly one
///     terminal status from {ok, failed, rejected, cancelled, deadline};
///     every response that reports a compressed stream matches the
///     single-shot reference byte-for-byte (crc32 + size) no matter what
///     faults hit neighboring jobs; expired deadlines report "deadline".
///  5. Drain phase: loads the workers with slow sweeps, requests shutdown,
///     verifies a post-drain submission is rejected with "draining", that
///     every in-flight job is still answered exactly once (the drain budget
///     cancelling stragglers), and that final metrics were flushed.
///
/// Streaming phase (in-process mode, before the fault phases): a clean
/// daemon with both AF_UNIX and TCP listeners round-trips a --stream-dim³
/// field — larger than the 16 MiB frame cap, so it rides the chunked
/// transfer family — over BOTH transports, asserting the compressed stream
/// is byte-identical to a single-shot in-process reference; plus a small
/// streamed reply, unsupported-version rejection (1.0 and 3.0), mid-transfer
/// disconnect (reassembly budget must return to zero) and watchdog reaping
/// of abandoned transfers.
///
/// External mode (--socket ENDPOINT, unix path or tcp:HOST:PORT) drives an
/// already-running foresightd with the same windowed load and just reports
/// statuses — check.sh uses it as the load generator for the real-binary
/// SIGTERM drain test, where the daemon may hang up mid-run (remaining
/// jobs are counted as unanswered, not errors).
///
/// Usage: daemon_stress [--jobs N] [--clients N] [--window N] [--dim N]
///                      [--stream-dim N] [--workers N] [--queue-capacity N]
///                      [--seed S] [--no-faults] [--socket ENDPOINT]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "foresight/compressor.hpp"
#include "foresight/pipeline.hpp"
#include "foresightd/client.hpp"
#include "foresightd/daemon.hpp"
#include "gpu/sim.hpp"
#include "io/crc32.hpp"
#include "json/json.hpp"

using namespace cosmo;

namespace {

struct CodecConfig {
  const char* codec;
  const char* mode;
  double value;
};

/// The full mixed roster: every CPU and simulated-GPU codec.
constexpr CodecConfig kRoster[] = {
    {"sz-cpu", "abs", 0.1}, {"zfp-cpu", "rate", 8}, {"fz-cpu", "abs", 0.1},
    {"cuzfp", "rate", 8},   {"gpu-sz", "abs", 0.1}, {"fz-gpu", "abs", 0.1},
};
constexpr std::size_t kRosterSize = sizeof(kRoster) / sizeof(kRoster[0]);

struct Reference {
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
};

struct Outcome {
  std::string status;
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  bool has_crc = false;
  int responses = 0;
};

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

json::Value dataset_spec(std::size_t dim) {
  json::Object spec;
  spec["type"] = "nyx";
  spec["dim"] = dim;
  spec["seed"] = 42;
  return json::Value(spec);
}

/// Single-shot references, computed with no fault plan installed.
std::map<std::string, Reference> compute_references(const Field& field) {
  std::map<std::string, Reference> refs;
  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  for (const auto& entry : kRoster) {
    auto compressor = foresight::make_compressor(entry.codec, &sim);
    auto session = compressor->open_session();
    const foresight::CompressResult c =
        session->compress(field, {entry.mode, entry.value});
    refs[entry.codec] = {crc32(c.bytes.data(), c.bytes.size()), c.bytes.size()};
  }
  return refs;
}

/// One client's windowed pipelined run. Returns id -> outcome.
std::map<std::uint64_t, Outcome> run_client(const std::string& socket, std::size_t client,
                                            std::size_t jobs, std::size_t window,
                                            std::size_t dim, bool tolerate_eof) {
  std::map<std::uint64_t, Outcome> outcomes;
  foresightd::Client conn(socket);
  const json::Value dataset = dataset_spec(dim);

  std::size_t outstanding = 0;
  std::size_t sent = 0;
  bool eof = false;

  const auto receive_one = [&] {
    foresightd::JobReply reply;
    try {
      reply = conn.recv_reply();
    } catch (const Error&) {
      if (!tolerate_eof) throw;
      eof = true;
      return;
    }
    Outcome& out = outcomes[reply.id];
    ++out.responses;
    out.status = reply.status.empty() ? "<none>" : reply.status;
    if (reply.raw.contains("crc32")) {
      out.has_crc = true;
      out.crc = static_cast<std::uint32_t>(reply.raw.at("crc32").as_number());
      out.bytes = static_cast<std::size_t>(reply.raw.get("compressed_bytes", 0.0));
    }
    --outstanding;
  };

  for (std::size_t i = 0; i < jobs && !eof; ++i) {
    const std::uint64_t id = client * 1000000 + i + 1;
    const CodecConfig& entry = kRoster[(client + i) % kRosterSize];
    foresightd::JobOptions job_options;
    job_options.priority = static_cast<int>(i % 3);
    foresightd::JobRequest request;
    if (i % 50 == 7) {
      // Already expired at admission: must come back as "deadline" (or
      // "rejected" if admission itself refused it), never "ok".
      foresightd::RoundtripRequest r;
      r.codec = entry.codec;
      r.mode = entry.mode;
      r.value = entry.value;
      r.dataset = dataset;
      r.field = "baryon_density";
      r.options = job_options;
      r.options.deadline_seconds = 1e-9;
      request = r.to_request(id);
    } else if (i % 25 == 3) {
      foresightd::SweepRequest s;
      s.codec = entry.codec;
      s.dataset = dataset;
      s.field = "baryon_density";
      for (int k = 0; k < 3; ++k) s.configs.push_back({entry.mode, entry.value});
      s.options = job_options;
      request = s.to_request(id);
    } else {
      foresightd::RoundtripRequest r;
      r.codec = entry.codec;
      r.mode = entry.mode;
      r.value = entry.value;
      r.dataset = dataset;
      r.field = "baryon_density";
      r.options = job_options;
      request = r.to_request(id);
    }
    try {
      conn.submit(request);
    } catch (const Error&) {
      if (!tolerate_eof) throw;
      eof = true;
      break;
    }
    ++sent;
    ++outstanding;
    while (outstanding >= window && !eof) receive_one();
  }
  while (outstanding > 0 && !eof) receive_one();
  return outcomes;
}

/// Validates one client's outcomes against the references; returns status
/// counts into \p counts.
void validate(const std::map<std::uint64_t, Outcome>& outcomes,
              const std::map<std::string, Reference>& refs, std::size_t client,
              std::size_t dim, std::map<std::string, std::size_t>& counts) {
  (void)dim;
  for (const auto& [id, out] : outcomes) {
    expect(out.responses == 1, "job " + std::to_string(id) + " answered " +
                                   std::to_string(out.responses) + " times");
    const bool known = out.status == "ok" || out.status == "failed" ||
                       out.status == "rejected" || out.status == "cancelled" ||
                       out.status == "deadline";
    expect(known, "job " + std::to_string(id) + " has unknown status " + out.status);
    ++counts[out.status];

    const std::size_t i = id - client * 1000000 - 1;
    if (i % 50 == 7) {
      expect(out.status == "deadline" || out.status == "rejected",
             "expired-deadline job " + std::to_string(id) + " reported " + out.status);
    }
    if (out.has_crc) {
      const CodecConfig& entry = kRoster[(client + i) % kRosterSize];
      const Reference& ref = refs.at(entry.codec);
      expect(out.crc == ref.crc && out.bytes == ref.bytes,
             std::string("stream mismatch vs single-shot for ") + entry.codec +
                 " (job " + std::to_string(id) + ")");
    }
  }
}

/// Polls \p cond every 5 ms until it holds or \p timeout_s elapses.
bool poll_until(double timeout_s, const std::function<bool()>& cond) {
  Timer timer;
  while (!cond()) {
    if (timer.seconds() > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Deterministic synthetic field (xorshift-filled): cheap to build even at
/// 512^3, and the daemon never sees a dataset spec for it — only the
/// uploaded bytes — so this exercises the inline-dataset path for real.
Field make_stream_field(std::size_t dim) {
  Field field("baryon_density", Dims::d3(dim, dim, dim));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (float& v : field.data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = 1.0f + static_cast<float>(x & 0xffffu) / 65536.0f;
  }
  return field;
}

/// The streaming acceptance scenario (see the file doc): a clean daemon on
/// both transports, a field past the 16 MiB frame cap uploaded and
/// compressed byte-identically to the single-shot reference, a small
/// streamed payload matching the --dim reference, version refusal, and
/// reassembly-budget hygiene under disconnect and idling. Failures are
/// recorded through expect().
void run_stream_phase(std::size_t stream_dim, std::size_t dim,
                      const std::map<std::string, Reference>& refs) {
  const Field field = make_stream_field(stream_dim);
  const auto* field_bytes = reinterpret_cast<const std::uint8_t*>(field.data.data());
  const std::size_t field_len = field.bytes();
  std::printf("daemon_stress: stream phase, %zu^3 field (%.1f MiB raw)\n", stream_dim,
              static_cast<double>(field_len) / (1 << 20));

  // Single-shot reference with the same codec/config the streamed jobs use.
  gpu::GpuSimulator sim(gpu::find_device("Tesla V100"));
  auto compressor = foresight::make_compressor("zfp-cpu", &sim);
  auto session = compressor->open_session();
  const foresight::CompressResult ref = session->compress(field, {"rate", 8});
  const foresight::DecompressResult ref_values = session->decompress(ref);
  const std::uint32_t ref_values_crc =
      crc32(reinterpret_cast<const std::uint8_t*>(ref_values.values.data()),
            ref_values.values.size() * sizeof(float));

  foresightd::DaemonOptions options;
  options.socket_path = "/tmp/fsd_stream_" + std::to_string(::getpid()) + ".sock";
  options.workers = 2;
  options.tcp_port = 0;  // ephemeral port: both transports, one pipeline
  options.transfer_idle_seconds = 1.0;
  options.response_stream_threshold = 256;  // stream even small payloads
  foresightd::Daemon daemon(options);
  daemon.start();
  expect(daemon.bound_tcp_port() > 0, "daemon did not bind a TCP port");
  const std::string tcp_endpoint =
      "tcp:127.0.0.1:" + std::to_string(daemon.bound_tcp_port());

  std::uint64_t id = 0;
  std::map<std::string, std::vector<std::uint8_t>> streams;  // endpoint -> bytes
  for (const std::string& endpoint : {options.socket_path, tcp_endpoint}) {
    foresightd::Client client(endpoint);
    const foresightd::HelloReply hello = client.hello();
    expect(hello.proto_major == foresightd::kProtoMajor,
           "hello advertised proto major " + std::to_string(hello.proto_major));
    expect(hello.max_frame_bytes == foresightd::kMaxFrameBytes,
           "hello frame-cap mismatch (" + endpoint + ")");

    // Upload the raw field — deliberately larger than one frame can carry.
    const auto up = client.upload("field", field_bytes, field_len);
    expect(up.ok, "upload rejected (" + endpoint + "): " + up.reason);
    expect(up.received_bytes == field_len, "upload size mismatch (" + endpoint + ")");
    expect(up.crc32 == crc32(field_bytes, field_len),
           "upload crc mismatch (" + endpoint + ")");

    // Compress via the inline-dataset path; the oversized result must come
    // back as a server->client stream and match the reference exactly.
    foresightd::CompressRequest creq;
    creq.codec = "zfp-cpu";
    creq.mode = "rate";
    creq.value = 8;
    creq.dataset = foresightd::inline_dataset("field", field.dims);
    creq.field = "baryon_density";
    creq.return_bytes = true;
    const foresightd::JobReply reply = client.call_reply(creq.to_request(++id));
    expect(reply.ok(), "streamed compress failed (" + endpoint + "): status=" +
                           reply.status + " reason=" + reply.reason + " " + reply.error);
    expect(!reply.payload_transfer.empty(),
           "oversized payload was not streamed (" + endpoint + ")");
    expect(reply.payload == ref.bytes,
           "streamed payload is not byte-identical to the single-shot reference (" +
               endpoint + ")");
    streams[endpoint] = reply.payload;

    // Round the stream back through decompress-by-transfer.
    if (reply.payload.empty()) continue;  // already failed above; don't cascade
    const auto up2 = client.upload("stream", reply.payload);
    expect(up2.ok, "stream re-upload rejected (" + endpoint + "): " + up2.reason);
    foresightd::DecompressRequest dreq;
    dreq.codec = "zfp-cpu";
    dreq.payload_transfer = "stream";
    const foresightd::JobReply dec = client.call_reply(dreq.to_request(++id));
    expect(dec.ok(), "streamed decompress failed (" + endpoint + "): status=" +
                         dec.status + " reason=" + dec.reason);
    expect(static_cast<std::uint32_t>(dec.raw.get("values_crc32", 0.0)) == ref_values_crc,
           "decompressed values crc mismatch (" + endpoint + ")");
  }
  // Both matching the reference already implies this, but it is the
  // acceptance criterion, so assert it directly.
  expect(streams[options.socket_path] == streams[tcp_endpoint],
         "AF_UNIX and TCP returned different streams");

  {
    // A below-frame-cap payload past the 256-byte threshold also rides the
    // response stream, and must match the single-shot reference.
    foresightd::Client client(options.socket_path);
    foresightd::CompressRequest small;
    small.codec = "zfp-cpu";
    small.mode = "rate";
    small.value = 8;
    small.dataset = dataset_spec(dim);
    small.field = "baryon_density";
    small.return_bytes = true;
    const foresightd::JobReply streamed = client.call_reply(small.to_request(++id));
    const Reference& small_ref = refs.at(small.codec);
    expect(streamed.ok() && !streamed.payload_transfer.empty(),
           "payload past the threshold was not streamed");
    expect(streamed.payload.size() == small_ref.bytes &&
               crc32(streamed.payload.data(), streamed.payload.size()) == small_ref.crc,
           "streamed payload does not match the single-shot reference");

    // Any major but the current one is refused with a structured error.
    for (const char* proto : {"1.0", "3.0"}) {
      json::Value other = small.to_request(++id).to_json();
      other.as_object()["proto"] = proto;
      const auto refused = foresightd::JobReply::parse(client.call(other));
      expect(refused.kind == foresightd::ReplyKind::kError &&
                 refused.error_code == "unsupported_version",
             std::string("proto ") + proto + " was not refused with unsupported_version");
    }
  }

  {
    // Mid-transfer disconnect: the daemon must release the reassembly
    // budget when the connection dies, never leak it.
    {
      foresightd::Client dropper(options.socket_path);
      foresightd::ChunkMessage begin;
      begin.type = foresightd::ChunkType::kBegin;
      begin.transfer = "abandoned";
      begin.total_bytes = field_len;
      dropper.send(begin.to_json());
      foresightd::ChunkMessage data;
      data.type = foresightd::ChunkType::kData;
      data.transfer = "abandoned";
      data.seq = 0;
      data.payload.assign(field_bytes, field_bytes + (1 << 20));
      data.crc32 = crc32(data.payload.data(), data.payload.size());
      data.has_crc32 = true;
      dropper.send(data.to_json());
      expect(poll_until(5.0,
                        [&] { return daemon.stats().transfer_reserved_bytes > 0; }),
             "daemon never reserved budget for the abandoned transfer");
    }  // dropper hangs up here, mid-transfer
    expect(poll_until(5.0, [&] { return daemon.stats().transfer_reserved_bytes == 0; }),
           "mid-transfer disconnect leaked reassembly budget");
  }

  {
    // Watchdog reap: a half-finished transfer idling on a *live* connection
    // is reaped after transfer_idle_seconds and its budget released.
    foresightd::Client idler(options.socket_path);
    foresightd::ChunkMessage begin;
    begin.type = foresightd::ChunkType::kBegin;
    begin.transfer = "idle";
    begin.total_bytes = 1 << 20;
    idler.send(begin.to_json());
    const foresightd::JobReply ack = idler.recv_reply();
    expect(ack.kind == foresightd::ReplyKind::kChunkAck && ack.chunk_ok,
           "begin for the idle transfer was not acked");
    const std::uint64_t reaped_before = daemon.stats().transfers_reaped;
    expect(poll_until(10.0,
                      [&] {
                        const auto s = daemon.stats();
                        return s.transfers_reaped > reaped_before &&
                               s.transfer_reserved_bytes == 0;
                      }),
           "watchdog did not reap the idle transfer");

    // A job referencing the reaped transfer must be rejected, never hang.
    foresightd::CompressRequest ghost;
    ghost.codec = "zfp-cpu";
    ghost.mode = "rate";
    ghost.value = 8;
    ghost.dataset = foresightd::inline_dataset("idle", Dims::d3(64, 64, 64));
    ghost.field = "baryon_density";
    const foresightd::JobReply gr = idler.call_reply(ghost.to_request(++id));
    expect(gr.status == "rejected" && gr.reason == "transfer_missing",
           "job on a reaped transfer was not rejected with transfer_missing");
  }

  daemon.request_shutdown();
  daemon.wait();
  const auto s = daemon.stats();
  expect(s.admitted == s.ok + s.failed + s.cancelled + s.deadline,
         "stream phase: admitted jobs do not partition into terminal statuses");
  expect(s.transfer_reserved_bytes == 0,
         "stream phase ended with reserved transfer bytes");
  expect(s.transfers_completed >= 4, "expected at least four completed transfers");
  expect(s.dataset_cache.hits + s.dataset_cache.misses > 0,
         "dataset cache was never consulted");
  std::printf(
      "daemon_stress: stream phase ok (%zu-byte stream, unix+tcp byte-identical)\n",
      streams[tcp_endpoint].size());
}

int run_external(const CliArgs& args) {
  const std::string socket = args.get("socket", "");
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 400));
  const std::size_t clients = std::max<std::size_t>(1, args.get_int("clients", 1));
  const std::size_t window = static_cast<std::size_t>(args.get_int("window", 32));
  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 16));

  std::vector<std::map<std::uint64_t, Outcome>> per_client(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        per_client[c] =
            run_client(socket, c + 1, jobs / clients, window, dim, /*tolerate_eof=*/true);
      } catch (const Error&) {
        // Daemon already gone before this client connected: nothing answered.
      }
    });
  }
  for (auto& t : threads) t.join();

  std::map<std::string, std::size_t> counts;
  std::size_t answered = 0;
  for (const auto& outcomes : per_client) {
    for (const auto& [id, out] : outcomes) {
      if (out.responses == 0) continue;  // daemon hung up before answering
      expect(out.responses == 1, "job answered more than once");
      ++counts[out.status];
      ++answered;
    }
  }
  std::printf("daemon_stress(external): sent<=%zu answered=%zu", jobs, answered);
  for (const auto& [status, n] : counts) std::printf(" %s=%zu", status.c_str(), n);
  std::printf("\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    if (args.has("socket")) return run_external(args);

    const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 1000));
    const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
    const std::size_t window = static_cast<std::size_t>(args.get_int("window", 8));
    const std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 16));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 20260808));

    // --- Phase A: single-shot references (no faults active). ---
    const io::Container data = foresight::build_dataset(dataset_spec(dim));
    const Field& field = data.find("baryon_density").field;
    const auto refs = compute_references(field);

    // --- Streaming phase: chunked transfers over AF_UNIX + TCP, before
    // any fault plan is installed (streams must be byte-exact). ---
    const std::size_t stream_dim =
        static_cast<std::size_t>(args.get_int("stream-dim", 192));
    if (stream_dim > 0) run_stream_phase(stream_dim, dim, refs);

    // --- Phase B: the stressed daemon. ---
    foresightd::DaemonOptions options;
    options.socket_path =
        "/tmp/fsd_stress_" + std::to_string(::getpid()) + ".sock";
    options.workers = static_cast<std::size_t>(args.get_int("workers", 4));
    options.queue_capacity = static_cast<std::size_t>(args.get_int("queue-capacity", 28));
    options.priorities = 3;
    options.drain_budget_seconds = 0.05;
    options.metrics_out = options.socket_path + ".metrics.json";
    if (!args.has("no-faults")) {
      fault::Config faults;
      faults.seed = seed;
      faults.corrupt_probability = 0.15;
      faults.gpu_transient_every = 7;
      faults.gpu_oom_every = 19;
      options.faults = faults;
    }
    foresightd::Daemon daemon(options);
    daemon.start();

    const std::size_t per_client = jobs / clients;
    std::vector<std::thread> threads;
    std::vector<std::map<std::uint64_t, Outcome>> results(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        results[c] = run_client(options.socket_path, c + 1, per_client, window, dim,
                                /*tolerate_eof=*/false);
      });
    }
    for (auto& t : threads) t.join();

    std::map<std::string, std::size_t> counts;
    std::size_t total = 0;
    for (std::size_t c = 0; c < clients; ++c) {
      expect(results[c].size() == per_client,
             "client " + std::to_string(c + 1) + " is missing responses");
      total += results[c].size();
      validate(results[c], refs, c + 1, dim, counts);
    }
    expect(counts["ok"] > 0, "stress produced no ok jobs");
    if (options.faults && jobs >= 100) {  // tiny runs may dodge every fault
      expect(counts["failed"] > 0,
             "fault injection produced no contained failures (suspicious)");
    }

    // --- Phase C: graceful drain under load. ---
    // Slow sweeps (64 lattice points each) keep workers busy well past the
    // 50 ms drain budget, so cooperative cancellation must kick in. The
    // control connection carries only the slow jobs; a second connection
    // carries pings and the post-drain probe so frames never interleave.
    foresightd::Client control(options.socket_path);
    foresightd::Client prober(options.socket_path);
    const std::uint64_t admitted_before = daemon.stats().admitted;
    const std::size_t slow_jobs = 8;
    for (std::size_t i = 0; i < slow_jobs; ++i) {
      foresightd::SweepRequest slow;
      slow.codec = "sz-cpu";
      slow.dataset = dataset_spec(32);
      slow.field = "baryon_density";
      for (int k = 0; k < 64; ++k) slow.configs.push_back({"abs", 0.1});
      control.submit(slow.to_request(9000000 + i));
    }
    // Shut down only once everything is admitted, so the drain really does
    // find in-flight work (otherwise this would race toward 8 "draining"
    // rejections and prove nothing about cancellation).
    while (daemon.stats().admitted < admitted_before + slow_jobs) {
      std::this_thread::yield();
    }
    daemon.request_shutdown();
    while (!prober.ping().get("draining", false)) {
      std::this_thread::yield();
    }
    foresightd::RoundtripRequest late;
    late.codec = "sz-cpu";
    late.mode = "abs";
    late.value = 0.1;
    late.dataset = dataset_spec(dim);
    late.field = "baryon_density";
    const foresightd::JobReply refusal = prober.call_reply(late.to_request(9999999));
    expect(refusal.status == "rejected" && refusal.reason == "draining",
           "post-drain submission was not rejected with 'draining'");

    std::map<std::uint64_t, int> drain_answers;
    std::map<std::string, std::size_t> drain_counts;
    for (std::size_t i = 0; i < slow_jobs; ++i) {
      const foresightd::JobReply reply = control.recv_reply();
      ++drain_answers[reply.id];
      ++drain_counts[reply.status.empty() ? "<none>" : reply.status];
    }
    for (const auto& [id, n] : drain_answers) {
      expect(n == 1, "drain job " + std::to_string(id) + " answered " +
                         std::to_string(n) + " times");
    }
    expect(drain_counts["cancelled"] > 0,
           "drain budget expiry cancelled nothing despite slow jobs");

    daemon.wait();

    const auto s = daemon.stats();
    expect(s.admitted == s.ok + s.failed + s.cancelled + s.deadline,
           "admitted jobs do not partition into terminal statuses");
    std::FILE* metrics = std::fopen(options.metrics_out.c_str(), "rb");
    expect(metrics != nullptr, "final metrics were not flushed to " + options.metrics_out);
    if (metrics) std::fclose(metrics);
    std::remove(options.metrics_out.c_str());

    std::printf("daemon_stress: %zu jobs, %zu clients |", total, clients);
    for (const auto& [status, n] : counts) std::printf(" %s=%zu", status.c_str(), n);
    std::printf(" | drain:");
    for (const auto& [status, n] : drain_counts) std::printf(" %s=%zu", status.c_str(), n);
    std::printf(" | queue_high_water=%zu admitted=%llu\n", s.queue_high_water,
                static_cast<unsigned long long>(s.admitted));
    if (g_failures == 0) {
      std::printf("daemon_stress: OK\n");
      return 0;
    }
    std::fprintf(stderr, "daemon_stress: %d failures\n", g_failures);
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "daemon_stress: fatal: %s\n", e.what());
    return 1;
  }
}
