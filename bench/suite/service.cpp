/// \file service.cpp
/// \brief service-small and service-stream: an in-process foresightd on an
/// AF_UNIX socket, driven through the typed client API.
///
/// service-small sends many small requests whose cost is mostly per-request
/// overhead (frames, JSON, base64, admission, queueing, the dataset cache);
/// service-stream moves large chunked payloads that bypass the dataset
/// cache. A change that helps one kind of traffic and hurts the other shows
/// up as a split between the two.
#include <unistd.h>

#include <algorithm>
#include <random>
#include <thread>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/compressor.hpp"
#include "foresight/pipeline.hpp"
#include "foresightd/client.hpp"
#include "foresightd/daemon.hpp"
#include "io/crc32.hpp"
#include "stats.hpp"
#include "suite.hpp"

namespace fbench {
namespace {

namespace fsd = cosmo::foresightd;
namespace json = cosmo::json;

constexpr std::size_t kWorkers = 2;
constexpr double kReplyGraceSeconds = 30.0;

/// Starts a daemon on a fresh socket under the run's working directory.
std::unique_ptr<fsd::Daemon> start_daemon(const Options& opt, fsd::DaemonOptions options) {
  static int started = 0;
  options.socket_path = opt.work_dir + "/fsd-" + std::to_string(::getpid()) + "-" +
                        std::to_string(++started) + ".sock";
  options.workers = kWorkers;
  auto daemon = std::make_unique<fsd::Daemon>(options);
  daemon->start();
  return daemon;
}

/// One (dataset, field, codec config) with its single-shot reference,
/// computed in-process with no daemon involved.
struct Combo {
  json::Value dataset;
  const cosmo::Field* field = nullptr;
  std::string codec;
  cosmo::foresight::CompressorConfig config;
  std::vector<std::uint8_t> stream;
  std::uint32_t stream_crc = 0;
  std::uint32_t values_crc = 0;
};

/// zfp runs at rate 8; the error-bounded codecs at 1e-3 of the field range.
cosmo::foresight::CompressorConfig config_for(const std::string& codec, const cosmo::Field& f) {
  if (codec == "zfp-cpu") return {"rate", 8};
  const auto [lo, hi] = cosmo::value_range(f.view());
  return {"abs", 1e-3 * (static_cast<double>(hi) - lo)};
}

void add_combos(const json::Value& spec, const cosmo::io::Container& data,
                const std::vector<std::string>& codecs, cosmo::ThreadPool* pool,
                std::vector<Combo>& out) {
  std::map<std::string, std::unique_ptr<cosmo::foresight::Compressor>> compressors;
  std::map<std::string, std::unique_ptr<cosmo::foresight::CodecSession>> sessions;
  for (const std::string& codec : codecs) {
    compressors[codec] = cosmo::foresight::make_compressor(codec);
    sessions[codec] = compressors[codec]->open_session(nullptr, pool);
  }
  for (const auto& v : data.variables) {
    for (const std::string& codec : codecs) {
      Combo c{spec, &v.field, codec, config_for(codec, v.field), {}, 0, 0};
      auto compressed = sessions[codec]->compress(v.field, c.config);
      c.values_crc = values_crc(sessions[codec]->decompress(compressed).values);
      c.stream_crc = cosmo::crc32(compressed.bytes.data(), compressed.bytes.size());
      c.stream = std::move(compressed.bytes);
      out.push_back(std::move(c));
    }
  }
}

std::uint32_t reply_u32(const fsd::JobReply& r, const char* key) {
  return static_cast<std::uint32_t>(r.raw.get(key, 0.0));
}

/// Waits up to \p seconds for \p done; past that, drains the daemon so every
/// blocked receive returns, then joins.
void join_within(std::thread& t, const std::atomic<bool>& done, double seconds,
                 fsd::Daemon& daemon, Checks& checks) {
  const Clock::time_point start = Clock::now();
  while (!done.load() && since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!done.load()) {
    checks.expect(false, "replies still missing after the grace period; draining the daemon");
    daemon.request_shutdown();
  }
  t.join();
}

// ---------------------------------------------------------------------------
// service-small
// ---------------------------------------------------------------------------

/// A phase alternates slices of open loop (latency) and closed loop
/// (capacity), so both see the same mix of quiet and busy moments on a
/// shared host; the robust statistics take their medians over slices.
constexpr double kOpenShare = 0.75;     ///< of each slice
constexpr double kWindowsPerSlice = 10; ///< capacity samples per slice length
constexpr double kTailQuantile = 0.9;

enum class Kind { kRoundtrip, kCompress, kDecompress };

/// One request as sent, and what its reply said (the reply itself is not
/// kept, so memory does not grow with the number of requests answered).
struct Exchange : OpenLoopRequest {
  Kind kind = Kind::kRoundtrip;
  std::size_t combo = 0;
  int answers = 0;
  bool ok = false;
  std::string status;          ///< status and reason
  std::uint32_t crc = 0;       ///< stream crc, or values crc for a decompress
  std::uint32_t payload_crc = 0;  ///< crc of the bytes a compress returned inline
  double queue_wait = 0.0;
  double codec = 0.0;          ///< server-side compress + decompress seconds
  double original_bytes = 0.0;
  double compressed_bytes = 0.0;

  void absorb(const fsd::JobReply& r, Clock::time_point now) {
    done = now;
    ++answers;
    ok = r.ok();
    status = r.status + " " + r.reason + r.error;
    crc = reply_u32(r, kind == Kind::kDecompress ? "values_crc32" : "crc32");
    payload_crc = cosmo::crc32(r.payload.data(), r.payload.size());
    queue_wait = r.raw.get("queue_wait_seconds", 0.0);
    codec = r.raw.get("compress_seconds", 0.0) + r.raw.get("decompress_seconds", 0.0);
    original_bytes = r.raw.get("original_bytes", 0.0);
    compressed_bytes = r.raw.get("compressed_bytes", 0.0);
  }
};

class ServiceSmall final : public Workload {
 public:
  ServiceSmall(const Options& options, Checks& checks) : opt_(options), checks_(checks) {}

  void setup() override {
    daemon_.reset();
    combos_.clear();
    datasets_.clear();
    const std::size_t dim = opt_.smoke ? 16 : 32;
    for (std::size_t k = 0; k < 2; ++k) {
      const json::Value spec = fsd::nyx_dataset(dim, dataset_seed(kCorpusSeed, 30 + k));
      datasets_.push_back(cosmo::foresight::build_dataset(spec));
      add_combos(spec, datasets_.back(), {"sz-cpu", "zfp-cpu", "fz-cpu"}, nullptr, combos_);
    }
    field_order_ = seeded_order(combos_.size() / 3, derive_seed(opt_.seed, 5));
    raw_bytes_ = dim * dim * dim * sizeof(float);
    daemon_ = start_daemon(opt_, {});
    // Warm-up: every dataset lands in the daemon's cache and every codec
    // session opens, so the measured phases see steady state.
    fsd::Client client(daemon_->options().socket_path);
    for (std::size_t i = 0; i < combos_.size(); ++i) {
      client.submit(request(Kind::kRoundtrip, i, 1 + i));
    }
    for (std::size_t i = 0; i < combos_.size(); ++i) {
      checks_.expect(client.recv_reply().ok(), "warm-up roundtrip failed");
    }
  }

  Measurement measure(double seconds, Trace& trace) override {
    const fsd::Daemon::Stats before = daemon_->stats();
    Measurement m;
    const auto slices = std::max<std::size_t>(1, std::lround(seconds / slice_seconds()));
    const double slice = seconds / static_cast<double>(slices);
    // A traced phase is all open loop, so every traced op is a request
    // timed from its due time and the span shares have one denominator.
    const double open_seconds = trace.active() ? slice : slice * kOpenShare;
    const double window = slice_seconds() / kWindowsPerSlice;
    const auto windows = static_cast<std::size_t>((slice - open_seconds) / window);

    double gen_lag = 0.0, queue = 0.0, codec = 0.0, latency = 0.0;
    std::vector<double> lags, slice_tails, window_rates;
    std::vector<double> combo_compressed(combos_.size(), 0.0);
    std::size_t open_requests = 0, closed_requests = 0;
    for (std::size_t s = 0; s < slices; ++s) {
      std::vector<double> slice_latency;
      for (const Exchange& x : open_loop(open_seconds)) {
        ++open_requests;
        ++m.attempted;
        if (!settle(x, combo_compressed, m)) continue;
        slice_latency.push_back(x.latency());
        lags.push_back(x.generator_lag());
        gen_lag += lags.back();
        queue += x.queue_wait;
        codec += x.codec;
        latency += slice_latency.back();
        trace.record_op("op.fsd.request", x.due, x.done,
                        {{"generator_lag", lags.back()}, {"queue_wait", x.queue_wait},
                         {"codec", x.codec}});
      }
      m.op_seconds.insert(m.op_seconds.end(), slice_latency.begin(), slice_latency.end());
      if (!slice_latency.empty()) slice_tails.push_back(quantile(slice_latency, kTailQuantile));
      if (windows == 0) continue;

      // Capacity samples: completions per window of the closed loop.
      const Clock::time_point closed_start = Clock::now();
      std::vector<double> per_window(windows, 0.0);
      for (const Exchange& x : closed_loop(slice - open_seconds)) {
        ++closed_requests;
        ++m.attempted;
        if (!settle(x, combo_compressed, m)) continue;
        const auto w = static_cast<std::size_t>(
            std::chrono::duration<double>(x.done - closed_start).count() / window);
        if (w < windows) per_window[w] += 1.0 / window;
      }
      window_rates.insert(window_rates.end(), per_window.begin(), per_window.end());
    }
    m.op_tail_seconds = median(slice_tails);
    const double capacity = median(window_rates);
    m.throughput_mb_s = capacity * static_cast<double>(raw_bytes_) / 1e6;
    const fsd::Daemon::Stats after = daemon_->stats();
    // Each combo's stream is the same on every request (settle() checks it
    // against the reference), so the ratio is over combos, not requests.
    std::size_t combos_seen = 0;
    for (const double bytes : combo_compressed) {
      if (bytes <= 0.0) continue;
      ++combos_seen;
      m.raw_bytes += static_cast<double>(raw_bytes_);
      m.compressed_bytes += bytes;
    }

    if (latency > 0.0) {
      m.layer["fsd.gen_lag.share"] = gen_lag / latency;
      m.layer["fsd.queue_wait.share"] = queue / latency;
      m.layer["fsd.codec.share"] = codec / latency;
      m.layer["fsd.unattributed.share"] = (latency - gen_lag - queue - codec) / latency;
    }
    const double hits = static_cast<double>(after.dataset_cache.hits - before.dataset_cache.hits);
    const double misses =
        static_cast<double>(after.dataset_cache.misses - before.dataset_cache.misses);
    if (hits + misses > 0.0) m.layer["fsd.dataset_cache.hit_ratio"] = hits / (hits + misses);
    m.layer["fsd.rejected"] = static_cast<double>(after.rejected - before.rejected);
    // Queue depth as workers see it when they pop a job; main resets the
    // registry before a traced phase, so this is the phase's own maximum.
    m.layer["fsd.queue_high_water"] = static_cast<double>(
        cosmo::telemetry::MetricsRegistry::instance().gauge("foresightd.queue_depth").max());

    m.detail["combos_compressed"] = combos_seen;
    m.detail["slices"] = slices;
    m.detail["open_loop_rate_rps"] = rate();
    m.detail["open_loop_requests"] = open_requests;
    m.detail["generator_lag_p99_ms"] = quantile(lags, 0.99) * 1e3;
    m.detail["open_loop_p99_ms"] = quantile(m.op_seconds, 0.99) * 1e3;
    m.detail["closed_loop_requests"] = closed_requests;
    m.detail["capacity_rps"] = capacity;
    m.detail["utilization"] = capacity > 0.0 ? rate() / capacity : 0.0;
    return m;
  }

  [[nodiscard]] std::size_t working_set_bytes() const override {
    std::size_t bytes = 0;
    for (const auto& d : datasets_) bytes += d.payload_bytes();
    for (const Combo& c : combos_) bytes += c.stream.size();
    return bytes;
  }

  /// Per slice, p90: a 2.5 s slice holds about 190 requests, nineteen beyond
  /// p90 and one beyond p99. The run JSON still records p99 over the run.
  [[nodiscard]] double tail_quantile() const override { return kTailQuantile; }

 private:
  /// Open-loop arrivals per second, well under what two workers sustain
  /// (the run JSON records capacity and utilization).
  double rate() const { return opt_.smoke ? 50.0 : 100.0; }

  /// Smoke slices are short, so a smoke run still holds many of them.
  double slice_seconds() const { return opt_.smoke ? 0.1 : 2.5; }

  fsd::JobRequest request(Kind kind, std::size_t combo, std::uint64_t id) const {
    const Combo& c = combos_[combo];
    switch (kind) {
      case Kind::kRoundtrip:
        return fsd::RoundtripRequest{c.codec, c.config.mode, c.config.value, c.dataset,
                                     c.field->name, {}}
            .to_request(id);
      case Kind::kCompress:
        return fsd::CompressRequest{c.codec, c.config.mode, c.config.value, c.dataset,
                                    c.field->name, true, {}}
            .to_request(id);
      case Kind::kDecompress:
        return fsd::DecompressRequest{c.codec, c.stream, "", {}}.to_request(id);
    }
    return {};
  }

  /// The seeded request mix: half roundtrips, a quarter compresses with
  /// the bytes returned inline, a quarter decompresses of an inline stream.
  /// Codecs rotate, and the (dataset, field) pairs cycle in a seeded
  /// order, so every 36 requests cover every combo.
  Exchange plan(std::mt19937_64& rng, std::size_t i) const {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double draw = u(rng);
    Exchange x;
    x.kind = draw < 0.5 ? Kind::kRoundtrip : draw < 0.75 ? Kind::kCompress : Kind::kDecompress;
    x.combo = field_order_[(i / 3) % field_order_.size()] * 3 + i % 3;
    return x;
  }

  std::uint64_t first_id() const { return static_cast<std::uint64_t>(phase_) << 32; }

  std::vector<Exchange> open_loop(double seconds) {
    ++phase_;
    std::mt19937_64 rng(derive_seed(opt_.seed, 1000 + phase_));
    std::exponential_distribution<double> gap(rate());
    std::vector<Exchange> ex;
    std::vector<fsd::JobRequest> wire;
    std::vector<double> due;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
      ex.push_back(plan(rng, ex.size()));
      wire.push_back(request(ex.back().kind, ex.back().combo, first_id() + ex.size()));
      due.push_back(t);
    }

    fsd::Client conn(daemon_->options().socket_path);
    std::atomic<bool> done{false};
    // Submit only writes the socket, so one sender and one receiver thread
    // can share the connection.
    std::thread receiver([&] {
      try {
        for (std::size_t k = 0; k < ex.size(); ++k) {
          fsd::JobReply reply;
          timed("bench.client.recv_reply", [&] { reply = conn.recv_reply(); });
          const Clock::time_point now = Clock::now();
          const std::size_t i = reply.id - first_id() - 1;
          if (reply.id <= first_id() || i >= ex.size()) {
            checks_.expect(false, "reply with an unknown id " + std::to_string(reply.id));
            continue;
          }
          ex[i].absorb(reply, now);
        }
      } catch (const cosmo::Error& e) {
        checks_.expect(false, std::string("open-loop receive: ") + e.what());
      }
      done = true;
    });
    const Clock::time_point t0 = Clock::now();
    try {
      for (std::size_t i = 0; i < ex.size(); ++i) {
        ex[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(ex[i].due);
        ex[i].sent = Clock::now();
        timed("bench.client.submit", [&] { conn.submit(wire[i]); });
      }
    } catch (const cosmo::Error& e) {
      checks_.expect(false, std::string("open-loop send: ") + e.what());
      daemon_->request_shutdown();
    }
    join_within(receiver, done, seconds + kReplyGraceSeconds, *daemon_, checks_);
    return ex;
  }

  /// Two connections, each keeping four requests outstanding.
  std::vector<Exchange> closed_loop(double seconds) {
    constexpr std::size_t kConnections = 2;
    constexpr std::size_t kWindow = 4;
    std::vector<std::vector<Exchange>> per_conn(kConnections);
    std::vector<std::thread> threads;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Exchange>& ex = per_conn[c];
        std::mt19937_64 rng(derive_seed(opt_.seed, 2000 + 8 * phase_ + c));
        const std::uint64_t base = first_id() + (std::uint64_t{c + 1} << 24);
        try {
          fsd::Client conn(daemon_->options().socket_path);
          std::size_t outstanding = 0;
          for (;;) {
            while (outstanding < kWindow && Clock::now() < end) {
              ex.push_back(plan(rng, ex.size()));
              Exchange& x = ex.back();
              const fsd::JobRequest wire = request(x.kind, x.combo, base + ex.size());
              x.sent = x.due = Clock::now();
              conn.submit(wire);
              ++outstanding;
            }
            if (outstanding == 0) break;
            const fsd::JobReply reply = conn.recv_reply();
            const Clock::time_point now = Clock::now();
            const std::size_t i = reply.id - base - 1;
            --outstanding;
            if (reply.id <= base || i >= ex.size()) {
              checks_.expect(false, "reply with an unknown id " + std::to_string(reply.id));
              continue;
            }
            ex[i].absorb(reply, now);
          }
        } catch (const cosmo::Error& e) {
          checks_.expect(false, std::string("closed-loop connection: ") + e.what());
        }
      });
    }
    std::atomic<bool> all_done{false};
    std::thread waiter([&] {
      for (auto& t : threads) t.join();
      all_done = true;
    });
    join_within(waiter, all_done, seconds + kReplyGraceSeconds, *daemon_, checks_);
    std::vector<Exchange> out;
    for (auto& ex : per_conn) {
      for (auto& x : ex) out.push_back(std::move(x));
    }
    return out;
  }

  /// Checks one exchange against its reference; false when it failed. A
  /// good compress or roundtrip records its combo's compressed bytes.
  bool settle(const Exchange& x, std::vector<double>& combo_compressed, Measurement& m) {
    const Combo& c = combos_[x.combo];
    const std::string what = c.codec + " on " + c.field->name;
    bool ok = x.answers == 1 && x.ok;
    checks_.expect(x.answers == 1, what + ": " + std::to_string(x.answers) + " replies");
    checks_.expect(x.answers != 1 || x.ok, what + ": status " + x.status);
    if (ok && x.kind == Kind::kDecompress) {
      ok = x.crc == c.values_crc;
      checks_.expect(ok, what + ": decompressed values differ from the reference");
    } else if (ok) {
      ok = x.crc == c.stream_crc && (x.kind != Kind::kCompress || x.payload_crc == c.stream_crc);
      checks_.expect(ok, what + ": stream differs from the reference");
    }
    if (!ok) ++m.failed;
    if (ok && x.kind != Kind::kDecompress) combo_compressed[x.combo] = x.compressed_bytes;
    return ok;
  }

  const Options& opt_;
  Checks& checks_;
  std::vector<cosmo::io::Container> datasets_;
  std::vector<Combo> combos_;  ///< [dataset][field][codec]
  std::vector<std::size_t> field_order_;  ///< seeded order of the (dataset, field) pairs
  std::size_t raw_bytes_ = 0;  ///< one field, the raw size behind every request
  std::unique_ptr<fsd::Daemon> daemon_;
  int phase_ = 0;
};

// ---------------------------------------------------------------------------
// service-stream
// ---------------------------------------------------------------------------

class ServiceStream final : public Workload {
 public:
  ServiceStream(const Options& options, Checks& checks) : opt_(options), checks_(checks) {}

  void setup() override {
    client_.reset();
    daemon_.reset();
    combos_.clear();
    // One 128³ density-contrast field: 8 MiB, two 4 MiB upload chunks. The
    // daemon only ever sees the uploaded bytes.
    cosmo::NyxConfig nyx;
    nyx.dim = opt_.smoke ? 32 : 128;
    nyx.seed = derive_seed(kCorpusSeed, 50);
    data_.variables = {{cosmo::generate_nyx_delta(nyx), {}}};
    field_crc_ = values_crc(data_.variables.front().field.data);
    cosmo::ThreadPool pool(4);
    add_combos(json::Value(), data_, {"zfp-cpu", "sz-cpu"}, &pool, combos_);
    fsd::DaemonOptions options;
    // Every result past 256 KiB comes back as a server-to-client stream.
    options.response_stream_threshold = opt_.smoke ? 4096 : 256u << 10;
    daemon_ = start_daemon(opt_, options);
    client_ = std::make_unique<fsd::Client>(daemon_->options().socket_path);
    rng_.seed(derive_seed(opt_.seed, 6));
    Measurement warm;
    round(warm);
  }

  /// Whole rounds, so every run holds as many zfp as sz round trips.
  Measurement measure(double seconds, Trace& /*trace*/) override {
    Measurement m;
    download_ = codec_ = 0.0;
    upload_mb_s_.clear();
    const Clock::time_point start = Clock::now();
    double round_seconds = 0.0;
    do {
      const Clock::time_point round_start = Clock::now();
      round(m);
      round_seconds = since(round_start);
    } while (another_cycle(start, round_seconds, seconds));
    if (m.op_seconds.empty()) return m;
    // Every op moves the same raw bytes.
    m.throughput_mb_s = static_cast<double>(data_.payload_bytes()) / median(m.op_seconds) / 1e6;
    double total = 0.0;
    for (const double s : m.op_seconds) total += s;
    m.layer["fsd.upload.mb_s"] = median(upload_mb_s_);
    m.layer["fsd.download.share"] = download_ / total;
    m.layer["fsd.stream.codec_share"] = codec_ / total;
    return m;
  }

  [[nodiscard]] std::size_t working_set_bytes() const override {
    std::size_t bytes = data_.payload_bytes();
    for (const Combo& c : combos_) bytes += c.stream.size();
    return bytes;
  }

  /// A run holds about twenty round trips: ten beyond the median, too few
  /// beyond any higher percentile.
  [[nodiscard]] double tail_quantile() const override { return 0.5; }

 private:
  /// One round: the field's round trip through each codec, in seeded order.
  void round(Measurement& m) {
    const bool zfp_first = std::bernoulli_distribution(0.5)(rng_);
    for (std::size_t k = 0; k < combos_.size(); ++k) {
      const Combo& c = combos_[zfp_first ? k : combos_.size() - 1 - k];
      ++m.attempted;
      double compressed = 0.0;
      const Clock::time_point start = Clock::now();
      bool ok = false;
      {
        const cosmo::telemetry::SpanScope op("op.stream.roundtrip");
        ok = roundtrip(c, compressed);
      }
      if (!ok) {
        ++m.failed;
        continue;
      }
      m.op_seconds.push_back(since(start));
      m.raw_bytes += static_cast<double>(c.field->bytes());
      m.compressed_bytes += compressed;
    }
  }

  /// One op: uploads the field, compresses it with the result streamed
  /// back, uploads that stream and decompresses it by transfer. False on
  /// any failure.
  bool roundtrip(const Combo& c, double& compressed_bytes) {
    const cosmo::Field& f = *c.field;
    const std::string what = c.codec + " on " + f.name;
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(f.data.data());
    try {
      fsd::Client::UploadResult field_up;
      const double up_seconds =
          timed("bench.client.upload", [&] { field_up = client_->upload("field", bytes, f.bytes()); });
      checks_.expect(field_up.ok && field_up.crc32 == field_crc_,
                     what + ": field upload failed " + field_up.reason);

      const fsd::JobReply compressed =
          call(fsd::CompressRequest{c.codec, c.config.mode, c.config.value,
                                    fsd::inline_dataset("field", f.dims), f.name, true, {}});
      const bool streamed_ok = compressed.ok() && !compressed.payload_transfer.empty() &&
                               cosmo::crc32(compressed.payload.data(),
                                            compressed.payload.size()) == c.stream_crc;
      checks_.expect(streamed_ok, what + ": streamed result differs from the reference (" +
                                      compressed.status + compressed.reason + ")");

      fsd::Client::UploadResult stream_up;
      timed("bench.client.upload", [&] { stream_up = client_->upload("stream", compressed.payload); });
      checks_.expect(stream_up.ok, what + ": stream upload failed " + stream_up.reason);

      const fsd::JobReply values = call(fsd::DecompressRequest{c.codec, {}, "stream", {}});
      const bool values_ok = values.ok() && reply_u32(values, "values_crc32") == c.values_crc;
      checks_.expect(values_ok, what + ": decompressed values differ from the reference");
      compressed_bytes = static_cast<double>(compressed.payload.size());
      upload_mb_s_.push_back(static_cast<double>(f.bytes()) / up_seconds / 1e6);
      return field_up.ok && streamed_ok && stream_up.ok && values_ok;
    } catch (const cosmo::Error& e) {
      checks_.expect(false, what + ": " + e.what());
      return false;
    }
  }

  /// submit + recv_reply, each in its own span. Adds the server-side codec
  /// time and the download time (call minus queue wait and codec) to the
  /// phase totals.
  template <typename Request>
  fsd::JobReply call(const Request& r) {
    fsd::JobReply reply;
    const double call_s =
        timed("bench.client.submit", [&] { client_->submit(r.to_request(++next_id_)); }) +
        timed("bench.client.recv_reply", [&] { reply = client_->recv_reply(); });
    const double server = reply.raw.get("compress_seconds", 0.0) +
                          reply.raw.get("decompress_seconds", 0.0);
    codec_ += server;
    if (!reply.payload_transfer.empty()) {
      download_ += call_s - server - reply.raw.get("queue_wait_seconds", 0.0);
    }
    return reply;
  }

  const Options& opt_;
  Checks& checks_;
  cosmo::io::Container data_;
  std::vector<Combo> combos_;  ///< zfp, sz
  std::unique_ptr<fsd::Daemon> daemon_;
  std::unique_ptr<fsd::Client> client_;
  std::mt19937_64 rng_;  ///< which codec goes first in each round
  std::uint64_t next_id_ = 0;
  std::uint32_t field_crc_ = 0;
  double download_ = 0.0;  ///< phase total: streamed-result receive time
  double codec_ = 0.0;     ///< phase total: server-side codec time
  std::vector<double> upload_mb_s_;
};

}  // namespace

std::unique_ptr<Workload> make_service_small(const Options& options, Checks& checks) {
  return std::make_unique<ServiceSmall>(options, checks);
}

std::unique_ptr<Workload> make_service_stream(const Options& options, Checks& checks) {
  return std::make_unique<ServiceStream>(options, checks);
}

}  // namespace fbench
