/// \file codec_snapshot.cpp
/// \brief codec-snapshot: closed-loop compress + decompress of a Nyx grid
/// snapshot and a HACC particle snapshot through reused 4-thread sessions.
///
/// Codec kernels do almost all the work here; analysis and foresightd do
/// none. Every array is 8 MiB, far larger than any CPU cache, so the
/// kernels stream from memory the way a real snapshot does.
#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/compressor.hpp"
#include "io/crc32.hpp"
#include "suite.hpp"

namespace fbench {
namespace {

using cosmo::foresight::CompressorConfig;
using cosmo::foresight::CompressResult;
using cosmo::foresight::DecompressResult;

constexpr std::size_t kThreads = 4;
constexpr const char* kCodecs[] = {"sz-cpu", "zfp-cpu", "fz-cpu"};

/// One (array, codec, config) pair the loop cycles through.
struct Pair {
  const cosmo::Field* field = nullptr;
  std::string codec;
  CompressorConfig config;
  double abs_bound = 0.0;  ///< > 0: every reconstruction stays within it
  double pw_rel = 0.0;     ///< > 0: point-wise relative bound
  bool has_ref = false;    ///< the first op set the three fields below
  std::uint32_t stream_crc = 0;
  std::uint32_t recon_crc = 0;
  std::size_t compressed = 0;
};

/// The bound holds up to float32 rounding of the reconstruction: two units
/// in the last place of the larger of the two values. (sz-cpu's pw_rel
/// mode reconstructs through float log/exp and overshoots by up to about
/// 1.4 of those units.)
bool within_bounds(const Pair& p, const std::vector<float>& recon) {
  const std::vector<float>& orig = p.field->data;
  if (recon.size() != orig.size()) return false;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const double err = std::fabs(static_cast<double>(recon[i]) - orig[i]);
    const float big = std::max(std::fabs(recon[i]), std::fabs(orig[i]));
    const double slack = 2.0 * (std::nextafter(big, INFINITY) - big);
    if (p.abs_bound > 0.0 && err > p.abs_bound + slack) return false;
    if (p.pw_rel > 0.0 && orig[i] != 0.0f &&
        err > p.pw_rel * std::fabs(static_cast<double>(orig[i])) + slack) {
      return false;
    }
  }
  return true;
}

class CodecSnapshot final : public Workload {
 public:
  CodecSnapshot(const Options& options, Checks& checks) : opt_(options), checks_(checks) {}

  void setup() override {
    // The previous set-up's state goes first, so set-ups never overlap.
    sessions_.clear();
    pairs_.clear();
    nyx_ = {};
    hacc_ = {};
    // 128³ floats and 2,097,152 particles are both 8 MiB per array.
    const std::size_t dim = opt_.smoke ? 32 : 128;
    cosmo::NyxConfig nyx;
    nyx.dim = dim;
    nyx.seed = derive_seed(kCorpusSeed, 1);
    nyx_ = cosmo::generate_nyx(nyx);
    cosmo::HaccConfig hacc;
    hacc.particles = dim * dim * dim;
    hacc.seed = derive_seed(kCorpusSeed, 2);
    hacc_ = cosmo::generate_hacc(hacc);

    const auto add_abs = [&](const cosmo::Field& f, const std::string& codec) {
      const auto [lo, hi] = cosmo::value_range(f.view());
      const double bound = 1e-3 * (static_cast<double>(hi) - lo);
      Pair p;
      p.field = &f;
      p.codec = codec;
      p.config = {"abs", bound};
      p.abs_bound = bound;
      pairs_.push_back(p);
    };
    const auto add_rate = [&](const cosmo::Field& f) {
      Pair p;
      p.field = &f;
      p.codec = "zfp-cpu";
      p.config = {"rate", 8};
      pairs_.push_back(p);
    };
    for (const auto& v : nyx_.variables) {
      add_abs(v.field, "sz-cpu");
      add_rate(v.field);
      add_abs(v.field, "fz-cpu");
    }
    for (const char* name : {"x", "y", "z"}) {
      const cosmo::Field& f = hacc_.find(name).field;
      add_abs(f, "sz-cpu");
      add_rate(f);
      add_abs(f, "fz-cpu");
    }
    for (const char* name : {"vx", "vy", "vz"}) {
      Pair p;
      p.field = &hacc_.find(name).field;
      p.codec = "sz-cpu";
      p.config = {"pw_rel", 1e-2};
      p.pw_rel = 1e-2;
      pairs_.push_back(p);
      add_rate(*p.field);
    }
    order_ = seeded_order(pairs_.size(), derive_seed(opt_.seed, 3));

    for (const char* codec : kCodecs) {
      compressors_[codec] = cosmo::foresight::make_compressor(codec);
      sessions_[codec] = compressors_[codec]->open_session(nullptr, &pool_);
    }
    // Warm-up: one op per codec grows its session's arena to steady state.
    for (const char* codec : kCodecs) {
      for (const Pair& p : pairs_) {
        if (p.codec != codec) continue;
        sessions_.at(codec)->compress(*p.field, p.config, c_);
        sessions_.at(codec)->decompress(c_, d_);
        break;
      }
    }
  }

  /// An op is one pair: compress() then decompress(). A phase runs whole
  /// rounds of all pairs, so every run holds the same mix of pair types
  /// (50 to 180 ms each) and its quantiles fall on the same ones.
  Measurement measure(double seconds, Trace& trace) override {
    Measurement m;
    std::vector<std::vector<double>> comp_s(pairs_.size()), decomp_s(pairs_.size());
    const Clock::time_point start = Clock::now();
    double round_seconds = 0.0;
    do {
      const Clock::time_point round_start = Clock::now();
      for (const std::size_t idx : order_) {
        Pair& p = pairs_[idx];
        cosmo::foresight::CodecSession& session = *sessions_.at(p.codec);
        ++m.attempted;
        try {
          const cosmo::telemetry::SpanScope op("op.codec.pair");
          comp_s[idx].push_back(
              timed("bench.session.compress", [&] { session.compress(*p.field, p.config, c_); }));
          decomp_s[idx].push_back(
              timed("bench.session.decompress", [&] { session.decompress(c_, d_); }));
        } catch (const cosmo::Error& e) {
          ++m.failed;
          checks_.expect(false, p.codec + " " + p.config.label() + " on " + p.field->name +
                                    ": " + e.what());
          continue;
        }
        m.op_seconds.push_back(comp_s[idx].back() + decomp_s[idx].back());
        verify(p, c_, d_, "4 threads");
      }
      round_seconds = since(round_start);
    } while (another_cycle(start, round_seconds, seconds));

    // Throughputs from each pair's median call times.
    std::map<std::string, double> raw, comp, decomp;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (comp_s[i].empty()) continue;
      const Pair& p = pairs_[i];
      raw[p.codec] += static_cast<double>(p.field->bytes());
      comp[p.codec] += median(comp_s[i]);
      decomp[p.codec] += median(decomp_s[i]);
      m.raw_bytes += static_cast<double>(p.field->bytes());
      m.compressed_bytes += static_cast<double>(p.compressed);
    }
    double all_comp = 0.0, all_decomp = 0.0;
    for (const auto& [codec, bytes] : raw) {
      all_comp += comp[codec];
      all_decomp += decomp[codec];
    }
    m.throughput_mb_s = m.raw_bytes / (all_comp + all_decomp) / 1e6;
    m.layer["codec.compressed_bytes"] = m.compressed_bytes;
    if (!trace.active()) {
      // Session-boundary throughput is an untraced measurement.
      for (const auto& [codec, bytes] : raw) {
        m.layer[codec + ".compress_mb_s"] = bytes / comp[codec] / 1e6;
        m.layer[codec + ".decompress_mb_s"] = bytes / decomp[codec] / 1e6;
        seconds_per_byte_4t_[codec] = (comp[codec] + decomp[codec]) / bytes;
      }
      m.layer["codec.compress_mb_s"] = m.raw_bytes / all_comp / 1e6;
      m.layer["codec.decompress_mb_s"] = m.raw_bytes / all_decomp / 1e6;
    }
    m.detail["pairs"] = pairs_.size();
    return m;
  }

  /// One 1-thread pass over the same pairs: streams and reconstructions must
  /// match the 4-thread ones byte for byte, and gives speedup_4t.
  void finish(LayerValues& layer) override {
    std::map<std::string, double> op_s, raw;
    for (const char* codec : kCodecs) {
      auto serial = compressors_.at(codec)->open_session();
      for (Pair& p : pairs_) {
        if (p.codec != codec) continue;
        try {
          const Clock::time_point t0 = Clock::now();
          serial->compress(*p.field, p.config, c_);
          serial->decompress(c_, d_);
          op_s[codec] += since(t0);
          raw[codec] += static_cast<double>(p.field->bytes());
        } catch (const cosmo::Error& e) {
          checks_.expect(false, std::string(codec) + " 1-thread: " + e.what());
          continue;
        }
        verify(p, c_, d_, "1 thread");
      }
      if (seconds_per_byte_4t_.count(codec) && raw[codec] > 0.0) {
        layer[std::string(codec) + ".speedup_4t"] =
            op_s[codec] / raw[codec] / seconds_per_byte_4t_[codec];
      }
    }
  }

  [[nodiscard]] std::size_t working_set_bytes() const override {
    return nyx_.payload_bytes() + hacc_.payload_bytes();
  }

  /// Six rounds of 33 pairs leave about twenty ops beyond p90.
  [[nodiscard]] double tail_quantile() const override { return 0.9; }

 private:
  /// The first round's results are the reference every later round and
  /// the 1-thread pass must reproduce exactly.
  void verify(Pair& p, const CompressResult& c, const DecompressResult& d, const char* who) {
    const std::uint32_t stream_crc = cosmo::crc32(c.bytes.data(), c.bytes.size());
    const std::uint32_t recon_crc = values_crc(d.values);
    const std::string what = p.codec + " " + p.config.label() + " on " + p.field->name;
    if (!p.has_ref) {
      p.has_ref = true;
      p.stream_crc = stream_crc;
      p.recon_crc = recon_crc;
      p.compressed = c.bytes.size();
      if (p.abs_bound > 0.0 || p.pw_rel > 0.0) {
        checks_.expect(within_bounds(p, d.values), what + " violates its error bound");
      }
      return;
    }
    checks_.expect(stream_crc == p.stream_crc && c.bytes.size() == p.compressed,
                   what + ": stream differs from the reference (" + who + ")");
    checks_.expect(recon_crc == p.recon_crc,
                   what + ": reconstruction differs from the reference (" + who + ")");
  }

  const Options& opt_;
  Checks& checks_;
  cosmo::ThreadPool pool_{kThreads};
  cosmo::io::Container nyx_;
  cosmo::io::Container hacc_;
  std::vector<Pair> pairs_;
  std::vector<std::size_t> order_;
  std::map<std::string, std::unique_ptr<cosmo::foresight::Compressor>> compressors_;
  std::map<std::string, std::unique_ptr<cosmo::foresight::CodecSession>> sessions_;
  CompressResult c_;
  DecompressResult d_;
  /// 4-thread op seconds per raw byte, per codec, from the first untraced phase.
  std::map<std::string, double> seconds_per_byte_4t_;
};

}  // namespace

std::unique_ptr<Workload> make_codec_snapshot(const Options& options, Checks& checks) {
  return std::make_unique<CodecSnapshot>(options, checks);
}

}  // namespace fbench
