/// \file bench_report.cpp
/// \brief Machine-readable throughput trajectory for the threaded codecs.
///
/// Sweeps codec x field x thread-count over large synthetic fields and
/// writes BENCH_throughput.json: MB/s, speedup over the 1-thread baseline,
/// and a byte-identity verdict for every entry (the determinism guarantee
/// is checked for real on every run, not assumed).
///
/// A third mode, --trace-overhead, measures what the telemetry layer costs
/// when tracing is disabled (the production default): the per-span price of
/// a disabled TRACE_SPAN, the span count an enabled SZ/ZFP round trip
/// records, and the implied fractional overhead — which must stay under the
/// 1% contract docs/architecture.md promises (exit 1 otherwise).
///
/// A second mode, --kernels, runs single-thread microbenchmarks of the
/// codec building blocks (bitstream put/get, CRC32, quantizer, Huffman,
/// LZSS, ZFP block codec, full SZ/ZFP pipelines) and writes
/// BENCH_kernels.json. Each entry carries a CRC32 of the kernel's output so
/// runs across builds can be checked for byte-identity, and --baseline
/// turns the tool into a regression gate (check.sh --bench-smoke).
///
/// Every speedup is measured: wall time at 1 thread over wall time at N.
/// `hardware_threads` records the host's core count beside them.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "cosmo/hacc_synth.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/optimizer.hpp"
#include "foresight/sweep.hpp"
#include "fz/fz.hpp"
#include "io/crc32.hpp"
#include "json/json.hpp"
#include "random/rng.hpp"
#include "sz/quantizer.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

namespace {

using namespace cosmo;

/// Smooth Nyx-like scalar field (same shape the codec microbenches use).
std::vector<float> nyx_like_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(100.0 * std::sin(0.02 * static_cast<double>(i)) +
                                 rng.normal());
  }
  return data;
}

/// HACC-like particle position component: cell-ordered positions with
/// sub-cell jitter (positions of sorted particles vary smoothly, which is
/// what makes SZ's Lorenzo predictor effective on them).
std::vector<float> hacc_like_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  const double box = 256.0;
  std::vector<float> data(dims.count());
  const std::size_t per_row = dims.nx;
  const double cell = box / static_cast<double>(per_row);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double base = static_cast<double>(i % per_row) * cell;
    data[i] = static_cast<float>(base + 0.35 * cell * (1.0 + 0.5 * rng.normal()));
  }
  return data;
}

struct RunResult {
  double compress_seconds = 1e300;    ///< best-of-repeats wall time
  double decompress_seconds = 1e300;  ///< best-of-repeats wall time
  std::vector<std::uint8_t> bytes;
  std::vector<float> recon;
};

template <typename CompressFn, typename DecompressFn>
RunResult run_codec(const CompressFn& compress_into, const DecompressFn& decompress_into,
                    std::size_t threads, int repeats) {
  const PoolHandle handle(threads);
  ThreadPool* pool = handle.get();
  RunResult r;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer t;
    compress_into(r.bytes, pool);
    r.compress_seconds = std::min(r.compress_seconds, t.seconds());
  }
  for (int rep = 0; rep < repeats; ++rep) {
    Timer t;
    decompress_into(r.bytes, r.recon, pool);
    r.decompress_seconds = std::min(r.decompress_seconds, t.seconds());
  }
  return r;
}

double mb_per_s(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
}

double speedup(double seconds_1_thread, double seconds_n_threads) {
  return seconds_n_threads > 0.0 ? seconds_1_thread / seconds_n_threads : 0.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_report [--edge N] [--reps R] [--out FILE]\n"
               "  sweeps {sz, zfp} x {nyx-like, hacc-like} x threads {1, 2, 4}\n"
               "  on an N^3 synthetic field and writes BENCH_throughput.json\n"
               "\n"
               "       bench_report --kernels [--edge N] [--reps R] [--out FILE]\n"
               "                    [--pre FILE] [--baseline FILE] [--max-regress F]\n"
               "                    [--check-crc FILE]\n"
               "  single-thread per-kernel microbenchmarks -> BENCH_kernels.json;\n"
               "  each kernel runs R reps (default 3, --repeats is an alias) and\n"
               "  reports the best, which damps run-to-run drift\n"
               "  --pre embeds a previous run's rates as pre_pr_mb_s + speedup;\n"
               "  --baseline fails (exit 1) when any kernel is more than F (default\n"
               "  0.30) slower than the same kernel in FILE;\n"
               "  --check-crc fails (exit 1) when any kernel's output_crc32 differs\n"
               "  from the same kernel in FILE (deterministic byte-identity gate)\n"
               "\n"
               "       bench_report --trace-overhead [--edge N] [--repeats R] [--out FILE]\n"
               "  measures the disabled-tracing span cost and fails (exit 1) if the\n"
               "  implied overhead on an SZ/ZFP round trip exceeds 1%%\n"
               "\n"
               "       bench_report --optimizer [--dim N] [--particles P] [--threads T]\n"
               "                    [--out FILE]\n"
               "  runs the Section V-D configuration search twice (exhaustive, then\n"
               "  guided) with sz-cpu on a seeded N^3 Nyx snapshot (28-bound abs\n"
               "  lattice per field) and a seeded P-particle HACC snapshot, and\n"
               "  writes BENCH_optimizer.json; fails (exit 1) when a guided choice\n"
               "  is unacceptable or >2%% worse CR than the exhaustive winner, or\n"
               "  when the Nyx guided search spends more than 1/3 of the exhaustive\n"
               "  full evaluations or less than 3x lower optimizer wall-clock\n");
  return 2;
}

/// One microbenchmark result. `payload_bytes` is the uncompressed-side byte
/// count the rate is normalized by; `checksum` is a CRC32 of the kernel's
/// output so two builds can be diffed for byte-identity from the JSON alone.
struct KernelResult {
  std::string kernel;
  double seconds = 1e300;  // best-of-repeats
  std::size_t payload_bytes = 0;
  std::uint32_t checksum = 0;
};

template <typename Fn>
KernelResult bench_kernel(const std::string& name, std::size_t payload_bytes, int repeats,
                          const Fn& run) {
  KernelResult r;
  r.kernel = name;
  r.payload_bytes = payload_bytes;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer t;
    const std::uint32_t sum = run();
    const double wall = t.seconds();
    if (wall < r.seconds) r.seconds = wall;
    r.checksum = sum;
  }
  return r;
}

/// Quantization codes for the 256^3-style bench field: first-order (1-D
/// Lorenzo) prediction residuals through the production quantizer, i.e. the
/// same near-radius code distribution the SZ pipeline feeds to Huffman.
std::vector<std::uint32_t> quant_codes_for(const std::vector<float>& data, double eb) {
  const sz::Quantizer quant(eb);
  std::vector<std::uint32_t> codes(data.size());
  float prev = 0.0f;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const sz::Quantizer::Result q = quant.quantize(data[i], prev);
    codes[i] = q.code;
    prev = q.code == 0 ? data[i] : q.reconstructed;
  }
  return codes;
}

int run_kernel_bench(std::size_t edge, int repeats, const std::string& out_path,
                     const std::string& pre_path, const std::string& baseline_path,
                     double max_regress, const std::string& check_crc_path) {
  const Dims dims = Dims::d3(edge, edge, edge);
  const std::size_t field_bytes = dims.count() * sizeof(float);
  const std::vector<float> field = nyx_like_field(dims, 11);

  std::vector<KernelResult> results;

  // --- bitstream put/get: the width mix the codecs actually use (1-bit
  // flags, small multi-bit fields, occasional wide words).
  {
    std::vector<std::pair<std::uint64_t, unsigned>> writes;
    writes.reserve(1u << 21);
    Rng rng(21);
    std::uint64_t payload_bits = 0;
    for (std::size_t i = 0; i < (1u << 21); ++i) {
      const unsigned sel = static_cast<unsigned>(i % 8);
      const unsigned nbits = sel < 4 ? 1 : sel < 6 ? 9 : sel < 7 ? 16 : 48;
      std::uint64_t v = rng.next_u64();
      if (nbits < 64) v &= (std::uint64_t{1} << nbits) - 1;
      writes.emplace_back(v, nbits);
      payload_bits += nbits;
    }
    const std::size_t payload = static_cast<std::size_t>(payload_bits / 8);
    std::vector<std::uint8_t> encoded;
    results.push_back(bench_kernel("bitstream_put", payload, repeats, [&] {
      BitWriter bw;
      for (const auto& [v, nbits] : writes) bw.put(v, nbits);
      encoded = bw.finish();
      return crc32(encoded.data(), encoded.size());
    }));
    results.push_back(bench_kernel("bitstream_get", payload, repeats, [&] {
      BitReader br(encoded);
      std::uint64_t acc = 0;
      for (const auto& [v, nbits] : writes) acc ^= br.get(nbits) + nbits;
      return crc32(&acc, sizeof(acc));
    }));
  }

  // --- CRC32 over the raw field bytes.
  results.push_back(bench_kernel("crc32", field_bytes, repeats, [&] {
    return crc32(field.data(), field_bytes);
  }));

  // --- quantizer: quantize + reconstruct against a running prediction.
  results.push_back(bench_kernel("sz_quantize", field_bytes, repeats, [&] {
    const sz::Quantizer quant(0.1);
    float prev = 0.0f;
    std::uint64_t acc = 0;
    for (const float v : field) {
      const sz::Quantizer::Result q = quant.quantize(v, prev);
      prev = q.code == 0 ? v : q.reconstructed;
      acc += q.code;
    }
    return crc32(&acc, sizeof(acc));
  }));

  // --- Huffman over realistic quantization codes (chunked container, the
  // production path; pool=nullptr keeps it single-thread).
  const std::vector<std::uint32_t> codes = quant_codes_for(field, 0.1);
  const std::size_t code_bytes = codes.size() * sizeof(std::uint32_t);
  std::vector<std::uint8_t> huff;
  results.push_back(bench_kernel("huffman_encode", code_bytes, repeats, [&] {
    huff = huffman_encode(codes, nullptr);
    return crc32(huff.data(), huff.size());
  }));
  results.push_back(bench_kernel("huffman_decode", code_bytes, repeats, [&] {
    const std::vector<std::uint32_t> decoded = huffman_decode(huff, nullptr);
    require(decoded == codes, "bench: huffman round trip mismatch");
    return crc32(decoded.data(), decoded.size() * sizeof(std::uint32_t));
  }));

  // --- LZSS over the Huffman stream (what sz's lossless stage really sees).
  std::vector<std::uint8_t> lz;
  results.push_back(bench_kernel("lzss_encode", huff.size(), repeats, [&] {
    lz = lzss_encode(huff, nullptr);
    return crc32(lz.data(), lz.size());
  }));
  results.push_back(bench_kernel("lzss_decode", huff.size(), repeats, [&] {
    const std::vector<std::uint8_t> decoded = lzss_decode(lz, nullptr);
    require(decoded == huff, "bench: lzss round trip mismatch");
    return crc32(decoded.data(), decoded.size());
  }));

  // --- ZFP block codec via the fixed-rate pipeline (bit-plane coder + lift).
  {
    zfp::Params zp;
    zp.rate = 8.0;
    std::vector<std::uint8_t> stream;
    results.push_back(bench_kernel("zfp_encode", field_bytes, repeats, [&] {
      zfp::compress_into(field, dims, zp, stream, nullptr, nullptr);
      return crc32(stream.data(), stream.size());
    }));
    std::vector<float> recon;
    results.push_back(bench_kernel("zfp_decode", field_bytes, repeats, [&] {
      zfp::decompress_into(stream, recon, nullptr, nullptr);
      return crc32(recon.data(), recon.size() * sizeof(float));
    }));
  }

  // --- full SZ pipeline, serial (prediction + quantization + Huffman + LZSS).
  {
    sz::Params sp;
    sp.abs_error_bound = 0.1;
    std::vector<std::uint8_t> stream;
    results.push_back(bench_kernel("sz_encode", field_bytes, repeats, [&] {
      sz::compress_into(field, dims, sp, stream, nullptr, nullptr);
      return crc32(stream.data(), stream.size());
    }));
    std::vector<float> recon;
    results.push_back(bench_kernel("sz_decode", field_bytes, repeats, [&] {
      sz::decompress_into(stream, recon, nullptr, nullptr);
      return crc32(recon.data(), recon.size() * sizeof(float));
    }));
  }

  // --- FZ stages: the bitshuffle transpose and zero-run sparsifier over
  // the same quantization-code distribution the fz pipeline shuffles
  // (zigzag-remapped so high planes are sparse), then the full pipeline.
  {
    std::vector<std::uint16_t> fz_symbols(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (codes[i] == 0) {
        fz_symbols[i] = 0;
      } else {
        const std::int32_t centered = static_cast<std::int32_t>(codes[i]) - (1 << 15);
        const std::uint32_t zigzag = (static_cast<std::uint32_t>(centered) << 1) ^
                                     static_cast<std::uint32_t>(centered >> 31);
        fz_symbols[i] = static_cast<std::uint16_t>(zigzag + 1);
      }
    }
    const std::size_t symbol_bytes = fz_symbols.size() * sizeof(std::uint16_t);
    std::vector<std::uint8_t> planes;
    results.push_back(bench_kernel("fz_bitshuffle", symbol_bytes, repeats, [&] {
      planes = fz::bitshuffle(fz_symbols);
      return crc32(planes.data(), planes.size());
    }));
    results.push_back(bench_kernel("fz_unshuffle", symbol_bytes, repeats, [&] {
      const std::vector<std::uint16_t> back = fz::bitunshuffle(planes, fz_symbols.size());
      require(back == fz_symbols, "bench: bitshuffle round trip mismatch");
      return crc32(back.data(), back.size() * sizeof(std::uint16_t));
    }));
    std::vector<std::uint8_t> sparse;
    results.push_back(bench_kernel("fz_zero_run_encode", planes.size(), repeats, [&] {
      sparse = fz::zero_run_encode(planes);
      return crc32(sparse.data(), sparse.size());
    }));
    results.push_back(bench_kernel("fz_zero_run_decode", planes.size(), repeats, [&] {
      const std::vector<std::uint8_t> back = fz::zero_run_decode(sparse);
      require(back == planes, "bench: zero-run round trip mismatch");
      return crc32(back.data(), back.size());
    }));

    fz::Params fp;
    fp.abs_error_bound = 0.1;
    std::vector<std::uint8_t> stream;
    results.push_back(bench_kernel("fz_encode", field_bytes, repeats, [&] {
      fz::compress_into(field, dims, fp, stream, nullptr, nullptr);
      return crc32(stream.data(), stream.size());
    }));
    std::vector<float> recon;
    results.push_back(bench_kernel("fz_decode", field_bytes, repeats, [&] {
      fz::decompress_into(stream, recon, nullptr, nullptr);
      return crc32(recon.data(), recon.size() * sizeof(float));
    }));
  }

  // Optional reference runs: --pre embeds a previous run for before/after
  // bookkeeping; --baseline gates on regression.
  auto load_rates = [](const std::string& path) {
    std::map<std::string, double> rates;
    const json::Value root = json::parse_file(path);
    for (const auto& entry : root.as_object().at("kernels").as_array()) {
      const auto& obj = entry.as_object();
      rates[obj.at("kernel").as_string()] = obj.at("mb_s").as_number();
    }
    return rates;
  };
  std::map<std::string, double> pre_rates;
  if (!pre_path.empty()) pre_rates = load_rates(pre_path);
  std::map<std::string, double> baseline_rates;
  if (!baseline_path.empty()) baseline_rates = load_rates(baseline_path);

  // --check-crc: byte-identity gate against a committed run. Unlike the
  // throughput gate this is deterministic, so CI can fail hard on any
  // output_crc32 drift (kernels present only on one side are ignored —
  // new kernels may be added between runs).
  std::map<std::string, std::uint32_t> baseline_crcs;
  if (!check_crc_path.empty()) {
    const json::Value root = json::parse_file(check_crc_path);
    for (const auto& entry : root.as_object().at("kernels").as_array()) {
      const auto& obj = entry.as_object();
      baseline_crcs[obj.at("kernel").as_string()] =
          static_cast<std::uint32_t>(obj.at("output_crc32").as_number());
    }
  }

  bool regressed = false;
  bool crc_mismatch = false;
  json::Array entries;
  for (const KernelResult& r : results) {
    const double rate = mb_per_s(r.payload_bytes, r.seconds);
    json::Object e;
    e["kernel"] = r.kernel;
    e["seconds"] = r.seconds;
    e["payload_bytes"] = r.payload_bytes;
    e["mb_s"] = rate;
    e["output_crc32"] = static_cast<double>(r.checksum);
    std::string note;
    if (const auto it = pre_rates.find(r.kernel); it != pre_rates.end()) {
      e["pre_pr_mb_s"] = it->second;
      e["speedup_vs_pre"] = it->second > 0.0 ? rate / it->second : 0.0;
      note = " (x" + std::to_string(it->second > 0.0 ? rate / it->second : 0.0).substr(0, 4) +
             " vs pre)";
    }
    if (const auto it = baseline_rates.find(r.kernel); it != baseline_rates.end()) {
      const bool bad = rate < (1.0 - max_regress) * it->second;
      e["regressed_vs_baseline"] = bad;
      if (bad) {
        regressed = true;
        std::fprintf(stderr, "bench_report: REGRESSION %s %.1f MB/s vs baseline %.1f MB/s\n",
                     r.kernel.c_str(), rate, it->second);
      }
    }
    if (const auto it = baseline_crcs.find(r.kernel); it != baseline_crcs.end()) {
      if (it->second != r.checksum) {
        crc_mismatch = true;
        std::fprintf(stderr, "bench_report: CRC MISMATCH %s output %08x vs baseline %08x\n",
                     r.kernel.c_str(), r.checksum, it->second);
      }
    }
    std::printf("%-16s %10.1f MB/s  %.4fs  crc %08x%s\n", r.kernel.c_str(), rate, r.seconds,
                r.checksum, note.c_str());
    entries.push_back(json::Value(std::move(e)));
  }

  json::Object root;
  root["schema"] = "cosmo-bench-kernels/1";
  root["edge"] = edge;
  root["repeats"] = repeats;
  root["threads"] = 1;
  root["kernels"] = json::Value(std::move(entries));

  const std::string text = json::Value(std::move(root)).dump(2) + "\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return (regressed || crc_mismatch) ? 1 : 0;
}

/// Measures the telemetry contract: with tracing disabled (the production
/// default) a TRACE_SPAN costs one relaxed atomic load, so the instrumented
/// hot paths must run at effectively uninstrumented speed. Reported as
/// ns/span x spans-per-round-trip / round-trip seconds; the densest real
/// workload (SZ + ZFP at edge^3) has to stay under 1%.
int run_trace_overhead(std::size_t edge, int repeats, const std::string& out_path) {
  using telemetry::Tracer;
  require(!Tracer::enabled(), "bench: tracer unexpectedly enabled");

  // --- price of one disabled span (best of repeats, amortized over 16M).
  constexpr std::size_t kSpans = 1u << 24;
  double span_loop_s = 1e300;
  for (int rep = 0; rep < std::max(repeats, 3); ++rep) {
    Timer t;
    for (std::size_t i = 0; i < kSpans; ++i) {
      TRACE_SPAN("bench.disabled_span");
    }
    span_loop_s = std::min(span_loop_s, t.seconds());
  }
  const double ns_per_span = span_loop_s / static_cast<double>(kSpans) * 1e9;

  // --- how many spans one SZ + ZFP round trip actually records, and how
  // long it takes with tracing off. Enabled run first (span census), then
  // the timed disabled runs.
  const Dims dims = Dims::d3(edge, edge, edge);
  const std::vector<float> field = nyx_like_field(dims, 11);
  sz::Params sp;
  sp.abs_error_bound = 0.1;
  zfp::Params zp;
  zp.rate = 8.0;
  const auto round_trip = [&] {
    std::vector<std::uint8_t> stream;
    std::vector<float> recon;
    sz::compress_into(field, dims, sp, stream, nullptr, nullptr);
    sz::decompress_into(stream, recon, nullptr, nullptr);
    zfp::compress_into(field, dims, zp, stream, nullptr, nullptr);
    zfp::decompress_into(stream, recon, nullptr, nullptr);
  };

  Tracer::enable();
  round_trip();
  const std::size_t spans_per_trip = Tracer::snapshot().size();
  Tracer::disable();
  Tracer::clear();

  double trip_s = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer t;
    round_trip();
    trip_s = std::min(trip_s, t.seconds());
  }

  const double overhead =
      trip_s > 0.0 ? static_cast<double>(spans_per_trip) * ns_per_span * 1e-9 / trip_s : 0.0;
  const bool ok = overhead < 0.01;
  std::printf("disabled span        %.2f ns\n", ns_per_span);
  std::printf("spans per round trip %zu\n", spans_per_trip);
  std::printf("round trip (traced code, tracing off)  %.4fs\n", trip_s);
  std::printf("implied overhead     %.5f%% (%s 1%% contract)\n", overhead * 100.0,
              ok ? "within" : "VIOLATES");

  json::Object root;
  root["schema"] = "cosmo-bench-trace-overhead/1";
  root["edge"] = edge;
  root["repeats"] = repeats;
  root["disabled_span_ns"] = ns_per_span;
  root["spans_per_round_trip"] = spans_per_trip;
  root["round_trip_seconds"] = trip_s;
  root["overhead_fraction"] = overhead;
  root["within_contract"] = ok;
  const std::string text = json::Value(std::move(root)).dump(2) + "\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --optimizer: exhaustive vs guided Section V-D search
// ---------------------------------------------------------------------------

constexpr double kOptimizerCrBand = 0.02;     ///< guided CR may be this much worse
constexpr double kOptimizerEvalFraction = 1.0 / 3.0;  ///< Nyx guided/exhaustive evals
constexpr double kOptimizerMinSpeedup = 3.0;  ///< Nyx exhaustive/guided wall

/// Search-cost + choice summary of one optimize run, for the JSON report.
json::Object optimizer_run_entry(const foresight::OptimizationResult& r) {
  json::Object s;
  s["candidates"] = r.stats.candidates;
  s["full_evals"] = r.stats.full_evals;
  s["probes"] = r.stats.probes;
  s["pruned"] = r.stats.pruned;
  s["rate_estimates"] = r.stats.rate_estimates;
  s["baseline_cache_hits"] = r.stats.baseline_cache_hits;
  s["wall_seconds"] = r.stats.wall_seconds;
  s["overall_ratio"] = r.overall_ratio;
  s["all_fields_ok"] = r.all_fields_ok;
  json::Array choices;
  for (const auto& f : r.per_field) {
    json::Object c;
    c["field"] = f.field;
    c["found"] = f.found;
    if (f.found) {
      c["mode"] = f.chosen.config.mode;
      c["value"] = f.chosen.config.value;
      c["ratio"] = f.chosen.ratio;
      c["metric_deviation"] = f.chosen.metric_deviation;
    }
    choices.push_back(json::Value(std::move(c)));
  }
  s["choices"] = json::Value(std::move(choices));
  return s;
}

/// Compares guided against exhaustive on one dataset, appending any gate
/// violations to \p failures. \p gate_evals turns on the Nyx-only cost
/// gates (eval fraction, wall speedup).
json::Object optimizer_compare(const std::string& dataset,
                               const foresight::OptimizationResult& ex,
                               const foresight::OptimizationResult& gd, bool gate_evals,
                               std::vector<std::string>& failures) {
  json::Object e;
  e["dataset"] = dataset;
  e["exhaustive"] = json::Value(optimizer_run_entry(ex));
  e["guided"] = json::Value(optimizer_run_entry(gd));

  const double fraction =
      ex.stats.full_evals > 0
          ? static_cast<double>(gd.stats.full_evals) / static_cast<double>(ex.stats.full_evals)
          : 1.0;
  const double speedup =
      gd.stats.wall_seconds > 0.0 ? ex.stats.wall_seconds / gd.stats.wall_seconds : 0.0;
  e["eval_fraction"] = fraction;
  e["wall_speedup"] = speedup;

  bool choices_match = ex.per_field.size() == gd.per_field.size();
  double worst_cr_shortfall = 0.0;
  for (std::size_t i = 0; i < ex.per_field.size() && i < gd.per_field.size(); ++i) {
    const auto& fe = ex.per_field[i];
    const auto& fg = gd.per_field[i];
    if (fe.found != fg.found ||
        (fe.found && (fe.chosen.config.mode != fg.chosen.config.mode ||
                      fe.chosen.config.value != fg.chosen.config.value))) {
      choices_match = false;
    }
    if (!fe.found) continue;  // nothing for guided to match
    if (!fg.found || !fg.chosen.acceptable) {
      failures.push_back(dataset + "/" + fe.field + ": guided found no acceptable config");
      continue;
    }
    const double shortfall = fe.chosen.ratio > 0.0 ? 1.0 - fg.chosen.ratio / fe.chosen.ratio : 0.0;
    worst_cr_shortfall = std::max(worst_cr_shortfall, shortfall);
    if (shortfall > kOptimizerCrBand) {
      failures.push_back(dataset + "/" + fe.field + ": guided CR " +
                         std::to_string(fg.chosen.ratio) + " is more than 2% below exhaustive " +
                         std::to_string(fe.chosen.ratio));
    }
  }
  e["choices_match"] = choices_match;
  e["worst_cr_shortfall"] = worst_cr_shortfall;
  if (gate_evals) {
    if (fraction > kOptimizerEvalFraction + 1e-9) {
      failures.push_back(dataset + ": guided used " + std::to_string(gd.stats.full_evals) +
                         " of " + std::to_string(ex.stats.full_evals) +
                         " full evals (> 1/3)");
    }
    if (speedup < kOptimizerMinSpeedup) {
      failures.push_back(dataset + ": optimizer wall speedup " + std::to_string(speedup) +
                         " < 3x");
    }
  }
  std::printf("%-5s exhaustive %3zu evals %7.2fs  guided %3zu evals %7.2fs  "
              "(%.0f%% of evals, x%.2f wall)  choices %s\n",
              dataset.c_str(), ex.stats.full_evals, ex.stats.wall_seconds,
              gd.stats.full_evals, gd.stats.wall_seconds, fraction * 100.0, speedup,
              choices_match ? "match" : "DIFFER");
  return e;
}

/// Runs exhaustive and guided search on seeded Nyx + HACC snapshots with
/// sz-cpu and writes BENCH_optimizer.json. The lattices are deliberately
/// denser than the codec's default sweep — the point of guided search is
/// that frontier resolution no longer costs one full evaluation per bound.
int run_optimizer_bench(std::size_t dim, std::size_t particles, std::size_t threads,
                        const std::string& out_path) {
  using namespace foresight;
  const auto codec = make_compressor("sz-cpu", nullptr);

  OptimizerOptions exhaustive;
  exhaustive.threads = threads;
  OptimizerOptions guided;
  guided.search = SearchMode::kGuided;
  guided.probes = 3;
  guided.threads = threads;

  std::vector<std::string> failures;
  json::Array datasets;

  // ---------------- Nyx ----------------
  NyxConfig nyx_cfg;
  nyx_cfg.dim = dim;
  const io::Container nyx = generate_nyx(nyx_cfg);
  std::map<std::string, std::vector<CompressorConfig>> nyx_cands;
  const SweepAxis nyx_axis{.mode = "abs",
                           .kind = SweepAxis::Kind::kRangeFractions,
                           .lo = 2e-6,
                           .hi = 2e-2,
                           .count = 28};
  for (const auto& variable : nyx.variables) {
    nyx_cands[variable.field.name] = configs_for_axis(nyx_axis, variable.field);
  }
  const auto nyx_ex = optimize_grid_dataset(nyx, *codec, nyx_cands, 0.01, 0.5, exhaustive);
  const auto nyx_gd = optimize_grid_dataset(nyx, *codec, nyx_cands, 0.01, 0.5, guided);
  if (std::getenv("BENCH_OPT_DUMP")) {
    std::printf("--- nyx exhaustive ---\n%s\n--- nyx guided ---\n%s\n",
                format_optimization(nyx_ex).c_str(), format_optimization(nyx_gd).c_str());
  }
  datasets.push_back(
      json::Value(optimizer_compare("nyx", nyx_ex, nyx_gd, /*gate_evals=*/true, failures)));

  // ---------------- HACC ----------------
  HaccConfig hacc_cfg;
  hacc_cfg.particles = particles;
  hacc_cfg.halo_count = std::max<std::size_t>(40, particles / 1500);
  const io::Container hacc = generate_hacc(hacc_cfg);
  analysis::FofParams fof;
  fof.linking_length = 1.0;
  fof.min_members = 20;
  const auto position_cands = configs_for_axis({.mode = "abs",
                                                .kind = SweepAxis::Kind::kRangeFractions,
                                                .lo = 4e-6,
                                                .hi = 4e-3,
                                                .count = 12},
                                               hacc.find("x").field);
  const auto velocity_cands = configs_for_axis(
      {.mode = "pw_rel", .kind = SweepAxis::Kind::kLogValues, .lo = 1e-3, .hi = 2e-1, .count = 8},
      hacc.find("vx").field);
  const auto hacc_ex = optimize_particle_dataset(hacc, *codec, position_cands, velocity_cands,
                                                 fof, 0.05, 0.05, exhaustive);
  const auto hacc_gd = optimize_particle_dataset(hacc, *codec, position_cands, velocity_cands,
                                                 fof, 0.05, 0.05, guided);
  datasets.push_back(
      json::Value(optimizer_compare("hacc", hacc_ex, hacc_gd, /*gate_evals=*/false, failures)));

  for (const auto& f : failures) std::fprintf(stderr, "bench_report: GATE: %s\n", f.c_str());

  json::Object root;
  root["schema"] = "cosmo-bench-optimizer/1";
  root["codec"] = "sz-cpu";
  root["nyx_dim"] = dim;
  root["hacc_particles"] = particles;
  root["threads"] = threads;
  root["nyx_lattice"] = "abs, 28 log-spaced range fractions in [2e-6, 2e-2] per field";
  root["hacc_position_lattice"] = "abs, 12 log-spaced range fractions in [4e-6, 4e-3]";
  root["hacc_velocity_lattice"] = "pw_rel, 8 log-spaced bounds in [1e-3, 2e-1]";
  json::Object gates;
  gates["cr_within"] = kOptimizerCrBand;
  gates["nyx_eval_fraction_max"] = kOptimizerEvalFraction;
  gates["nyx_wall_speedup_min"] = kOptimizerMinSpeedup;
  root["gates"] = json::Value(std::move(gates));
  root["datasets"] = json::Value(std::move(datasets));
  json::Array failure_rows;
  for (const auto& f : failures) failure_rows.push_back(json::Value(f));
  root["failures"] = json::Value(std::move(failure_rows));
  root["ok"] = failures.empty();

  const std::string text = json::Value(std::move(root)).dump(2) + "\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t edge = 256;
  // Every kernel runs `repeats` times and reports the best: single-shot
  // numbers drift 0.93–0.99x run to run, which made the --max-regress gate
  // noisy. 3 reps keeps the full --kernels pass under a minute at edge 256.
  int repeats = 3;
  bool kernels = false;
  bool trace_overhead = false;
  bool optimizer = false;
  std::size_t opt_dim = 64;
  std::size_t opt_particles = 60000;
  std::size_t opt_threads = 1;
  std::string out_path;
  std::string pre_path;
  std::string baseline_path;
  std::string check_crc_path;
  double max_regress = 0.30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--edge" && i + 1 < argc) {
      edge = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if ((arg == "--reps" || arg == "--repeats") && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--kernels") {
      kernels = true;
    } else if (arg == "--trace-overhead") {
      trace_overhead = true;
    } else if (arg == "--optimizer") {
      optimizer = true;
    } else if (arg == "--dim" && i + 1 < argc) {
      opt_dim = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--particles" && i + 1 < argc) {
      opt_particles = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      opt_threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--pre" && i + 1 < argc) {
      pre_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--check-crc" && i + 1 < argc) {
      check_crc_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }
  if (edge < 8 || repeats < 1) return usage();
  if (out_path.empty()) {
    out_path = optimizer ? "BENCH_optimizer.json"
                         : (trace_overhead ? "BENCH_trace_overhead.json"
                                           : (kernels ? "BENCH_kernels.json"
                                                      : "BENCH_throughput.json"));
  }
  if (optimizer) {
    if (opt_dim < 16 || opt_particles < 1000) return usage();
    try {
      return run_optimizer_bench(opt_dim, opt_particles, opt_threads, out_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "bench_report: %s\n", e.what());
      return 1;
    }
  }
  if (trace_overhead) {
    try {
      return run_trace_overhead(edge, repeats, out_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "bench_report: %s\n", e.what());
      return 1;
    }
  }
  if (kernels) {
    try {
      return run_kernel_bench(edge, repeats, out_path, pre_path, baseline_path, max_regress,
                              check_crc_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "bench_report: %s\n", e.what());
      return 1;
    }
  }

  const Dims dims = Dims::d3(edge, edge, edge);
  const std::size_t field_bytes = dims.count() * sizeof(float);
  const std::size_t hw_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<std::size_t> thread_counts = {1, 2, 4};

  struct FieldSpec {
    std::string name;
    std::vector<float> data;
  };
  std::vector<FieldSpec> fields;
  fields.push_back({"nyx_baryon_density", nyx_like_field(dims, 11)});
  fields.push_back({"hacc_x", hacc_like_field(dims, 12)});

  sz::Params sz_params;
  sz_params.abs_error_bound = 0.1;
  zfp::Params zfp_params;
  zfp_params.rate = 8.0;

  json::Array entries;
  bool all_identical = true;

  for (const auto& field : fields) {
    for (const std::string codec : {"sz", "zfp"}) {
      auto compress_into = [&](std::vector<std::uint8_t>& out, ThreadPool* pool) {
        if (codec == "sz") {
          sz::compress_into(field.data, dims, sz_params, out, nullptr, pool);
        } else {
          zfp::compress_into(field.data, dims, zfp_params, out, nullptr, pool);
        }
      };
      auto decompress_into = [&](const std::vector<std::uint8_t>& bytes,
                                 std::vector<float>& out, ThreadPool* pool) {
        if (codec == "sz") {
          sz::decompress_into(bytes, out, nullptr, pool);
        } else {
          zfp::decompress_into(bytes, out, nullptr, pool);
        }
      };

      RunResult baseline;  // threads == 1
      for (const std::size_t threads : thread_counts) {
        RunResult r = run_codec(compress_into, decompress_into, threads, repeats);
        const bool is_baseline = threads == 1;
        if (is_baseline) baseline = std::move(r);
        const RunResult& cur = is_baseline ? baseline : r;

        const bool stream_identical =
            cur.bytes.size() == baseline.bytes.size() &&
            (cur.bytes.empty() ||
             std::memcmp(cur.bytes.data(), baseline.bytes.data(), cur.bytes.size()) == 0);
        const bool recon_identical =
            cur.recon.size() == baseline.recon.size() &&
            (cur.recon.empty() ||
             std::memcmp(cur.recon.data(), baseline.recon.data(),
                         cur.recon.size() * sizeof(float)) == 0);
        all_identical = all_identical && stream_identical && recon_identical;

        json::Object e;
        e["codec"] = codec;
        e["field"] = field.name;
        e["threads"] = threads;
        e["compress_seconds"] = cur.compress_seconds;
        e["decompress_seconds"] = cur.decompress_seconds;
        e["compress_mb_s"] = mb_per_s(field_bytes, cur.compress_seconds);
        e["decompress_mb_s"] = mb_per_s(field_bytes, cur.decompress_seconds);
        e["compressed_bytes"] = cur.bytes.size();
        e["stream_identical_to_1_thread"] = stream_identical;
        e["recon_identical_to_1_thread"] = recon_identical;
        e["compress_speedup"] = speedup(baseline.compress_seconds, cur.compress_seconds);
        e["decompress_speedup"] =
            speedup(baseline.decompress_seconds, cur.decompress_seconds);
        e["combined_speedup"] =
            speedup(baseline.compress_seconds + baseline.decompress_seconds,
                    cur.compress_seconds + cur.decompress_seconds);
        entries.push_back(json::Value(std::move(e)));

        std::printf(
            "%-4s %-20s threads=%zu  comp %8.1f MB/s  dec %8.1f MB/s  "
            "x%.2f  bytes %s\n",
            codec.c_str(), field.name.c_str(), threads,
            mb_per_s(field_bytes, cur.compress_seconds),
            mb_per_s(field_bytes, cur.decompress_seconds),
            entries.back().at("combined_speedup").as_number(),
            stream_identical ? "identical" : "DIFFER");
      }
    }
  }

  json::Object root;
  root["schema"] = "cosmo-bench-throughput/1";
  root["edge"] = edge;
  root["field_bytes"] = field_bytes;
  root["repeats"] = repeats;
  root["hardware_threads"] = hw_threads;
  root["all_streams_identical"] = all_identical;
  root["entries"] = json::Value(std::move(entries));

  const std::string text = json::Value(std::move(root)).dump(2) + "\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
