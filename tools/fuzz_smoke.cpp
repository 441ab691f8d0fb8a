/// \file fuzz_smoke.cpp
/// \brief Seeded corruption fuzzing over every decode surface.
///
/// For each codec (SZ, SZ-pw_rel, ZFP, Huffman, LZSS, FPC, FZ plus its
/// bitshuffle / zero-run stage decoders) and the container loader, this
/// tool encodes a clean stream once, then decodes N seeded mutations of it.
/// The containment contract: every case either decodes or throws a
/// cosmo::Error. Anything else — a crash, a sanitizer report (run under
/// check.sh --fuzz-smoke), std::bad_alloc from an unbounded header-driven
/// allocation, or a hang (ctest timeout) — fails the run.
///
/// Usage: fuzz_smoke [--cases N] [--seed S] [--tmp DIR]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "codec/fpc.hpp"
#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresightd/protocol.hpp"
#include "fz/fz.hpp"
#include "huffman_reference.hpp"
#include "io/container.hpp"
#include "io/crc32.hpp"
#include "lzss_reference.hpp"
#include "sz/pwrel.hpp"
#include "sz/sz.hpp"
#include "zfp/zfp.hpp"

using namespace cosmo;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One decode surface: a clean stream plus the decoder under test.
struct Surface {
  std::string name;
  std::vector<std::uint8_t> clean;
  std::function<void(const std::vector<std::uint8_t>&)> decode;
};

/// Applies one seeded mutation. Reuses the three FaultPlan corruption kinds
/// and adds a fourth, harsher one: overwrite a run with random bytes.
void mutate(std::vector<std::uint8_t>& bytes, std::uint64_t& rng) {
  if (bytes.empty()) return;
  const std::uint64_t kind = splitmix64(rng) % 4;
  const std::size_t offset = splitmix64(rng) % bytes.size();
  switch (kind) {
    case 0: {  // up to 8 scattered bit flips
      const std::size_t flips = 1 + splitmix64(rng) % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        fault::FaultPlan::apply(bytes, fault::Corruption::kBitFlip,
                                splitmix64(rng) % bytes.size(), splitmix64(rng));
      }
      break;
    }
    case 1:
      fault::FaultPlan::apply(bytes, fault::Corruption::kTruncate, offset, 0);
      break;
    case 2:
      fault::FaultPlan::apply(bytes, fault::Corruption::kZeroRun, offset,
                              1 + splitmix64(rng) % 256);
      break;
    default: {  // random-byte run
      const std::size_t len =
          std::min<std::size_t>(1 + splitmix64(rng) % 64, bytes.size() - offset);
      for (std::size_t i = 0; i < len; ++i) {
        bytes[offset + i] = static_cast<std::uint8_t>(splitmix64(rng));
      }
      break;
    }
  }
}

int run_surface(const Surface& surface, std::size_t cases, std::uint64_t seed) {
  std::uint64_t rng = seed;
  std::size_t decoded = 0, rejected = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    std::vector<std::uint8_t> bytes = surface.clean;
    mutate(bytes, rng);
    try {
      surface.decode(bytes);
      ++decoded;
    } catch (const Error&) {
      ++rejected;  // the contained outcome for malformed input
    }
    // Any other exception type escapes and fails the tool: the decode
    // surfaces promise cosmo::Error for malformed streams, nothing else.
  }
  std::printf("%-14s %6zu cases: %6zu decoded, %6zu rejected\n", surface.name.c_str(),
              cases, decoded, rejected);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t cases = static_cast<std::size_t>(args.get_int("cases", 500));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 20260805));
  const char* env_tmp = std::getenv("TMPDIR");
  const std::string tmp_dir = args.get("tmp", env_tmp != nullptr ? env_tmp : "/tmp");

  // Source data: one synthetic cosmology field (3-D) drives every codec.
  NyxConfig nyx_config;
  nyx_config.dim = 16;
  const io::Container dataset = generate_nyx(nyx_config);
  const Field& field = dataset.find("baryon_density").field;

  // Symbol / byte views for the entropy and dictionary coders.
  std::vector<std::uint32_t> symbols(field.data.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<std::uint32_t>(i * 2654435761u % 1024u);
  }
  std::vector<std::uint8_t> raw_bytes(field.data.size());
  for (std::size_t i = 0; i < raw_bytes.size(); ++i) {
    raw_bytes[i] = static_cast<std::uint8_t>(static_cast<std::uint32_t>(field.data[i] * 255.f));
  }

  sz::Params sz_params;
  sz_params.abs_error_bound = 0.1;
  sz::PwRelParams pw_params;
  pw_params.pw_rel_bound = 0.05;
  zfp::Params zfp_params;
  zfp_params.mode = zfp::Mode::kFixedRate;
  zfp_params.rate = 8.0;

  // Container surface: the clean stream is a saved file; decoding writes
  // the mutated bytes back out and runs the loader.
  NyxConfig small_config;
  small_config.dim = 8;
  const io::Container small = generate_nyx(small_config);
  const std::string container_path = tmp_dir + "/fuzz_smoke_container.gio";
  io::save(small, container_path, io::Dialect::kGenericIo);
  std::vector<std::uint8_t> container_bytes;
  {
    std::ifstream in(container_path, std::ios::binary);
    container_bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  }

  std::vector<Surface> surfaces;
  surfaces.push_back({"sz", sz::compress(field.data, field.dims, sz_params),
                      [](const std::vector<std::uint8_t>& b) { (void)sz::decompress(b); }});
  surfaces.push_back(
      {"sz-pwrel", sz::compress_pwrel(field.data, field.dims, pw_params),
       [](const std::vector<std::uint8_t>& b) { (void)sz::decompress_pwrel(b); }});
  surfaces.push_back({"zfp", zfp::compress(field.data, field.dims, zfp_params),
                      [](const std::vector<std::uint8_t>& b) { (void)zfp::decompress(b); }});
  // The "huffman" and "lzss" surfaces fuzz the decode-only legacy formats
  // (HUFF, standalone LZSS), seeded from the test oracles that still write
  // them.
  surfaces.push_back(
      {"huffman", test::huffman_encode_reference(symbols),
       [](const std::vector<std::uint8_t>& b) { (void)huffman_decode(b); }});
  surfaces.push_back(
      {"huffman-chunk", huffman_encode(symbols, nullptr, 1 << 10),
       [](const std::vector<std::uint8_t>& b) { (void)huffman_decode(b); }});
  surfaces.push_back({"lzss", test::lzss_encode_reference(raw_bytes),
                      [](const std::vector<std::uint8_t>& b) { (void)lzss_decode(b); }});
  surfaces.push_back({"lzss-chunked", lzss_encode(raw_bytes),
                      [](const std::vector<std::uint8_t>& b) { (void)lzss_decode(b); }});
  surfaces.push_back({"fpc", fpc_encode(field.data), [](const std::vector<std::uint8_t>& b) {
                        (void)fpc_decode(b);
                      }});
  fz::Params fz_params;
  fz_params.abs_error_bound = 0.1;
  surfaces.push_back({"fz", fz::compress(field.data, field.dims, fz_params),
                      [](const std::vector<std::uint8_t>& b) { (void)fz::decompress(b); }});
  // The FZ stage decoders get their own surfaces: corrupted plane buffers
  // and sparsifier streams must reject cleanly too, not just full streams.
  std::vector<std::uint16_t> fz_codes(symbols.size());
  for (std::size_t i = 0; i < fz_codes.size(); ++i) {
    fz_codes[i] = static_cast<std::uint16_t>(symbols[i]);
  }
  surfaces.push_back({"fz-bitshuffle", fz::bitshuffle(fz_codes),
                      [n = fz_codes.size()](const std::vector<std::uint8_t>& b) {
                        (void)fz::bitunshuffle(b, n);
                      }});
  surfaces.push_back({"fz-zero-run", fz::zero_run_encode(raw_bytes),
                      [](const std::vector<std::uint8_t>& b) { (void)fz::zero_run_decode(b); }});
  // foresightd wire protocol: framing, the request schema, and base64.
  // Mutations routinely hit the 4-byte length prefix, so hostile declared
  // lengths (0, > 16 MiB, truncated headers) are exercised constantly; the
  // contract is a clean FormatError before any payload allocation.
  foresightd::JobRequest wire_request;
  wire_request.type = foresightd::RequestType::kRoundtrip;
  wire_request.id = 7;
  wire_request.codec = "sz-cpu";
  wire_request.config = {"abs", 0.1};
  wire_request.field = "baryon_density";
  {
    json::Object spec;
    spec["type"] = "nyx";
    spec["dim"] = 16;
    spec["seed"] = 42;
    wire_request.dataset = json::Value(std::move(spec));
  }
  const json::Value wire_json = wire_request.to_json();
  surfaces.push_back({"fsd-frame", foresightd::encode_frame(wire_json),
                      [](const std::vector<std::uint8_t>& b) {
                        foresightd::FrameParser parser;
                        parser.feed(b.data(), b.size());
                        while (parser.next()) {
                        }
                      }});
  // Same surface fed in small chunks: incremental header validation must
  // behave identically to one-shot feeding.
  surfaces.push_back({"fsd-frame-inc", foresightd::encode_frame(wire_json),
                      [](const std::vector<std::uint8_t>& b) {
                        foresightd::FrameParser parser;
                        for (std::size_t i = 0; i < b.size(); i += 3) {
                          parser.feed(b.data() + i, std::min<std::size_t>(3, b.size() - i));
                          while (parser.next()) {
                          }
                        }
                      }});
  const std::string wire_text = wire_json.dump();
  surfaces.push_back(
      {"fsd-request", std::vector<std::uint8_t>(wire_text.begin(), wire_text.end()),
       [](const std::vector<std::uint8_t>& b) {
         const std::string text(b.begin(), b.end());
         (void)foresightd::JobRequest::parse(json::parse(text));
       }});
  const std::string b64_text = foresightd::base64_encode(raw_bytes);
  surfaces.push_back(
      {"fsd-base64", std::vector<std::uint8_t>(b64_text.begin(), b64_text.end()),
       [](const std::vector<std::uint8_t>& b) {
         (void)foresightd::base64_decode(std::string(b.begin(), b.end()));
       }});
  // Chunked-transfer reassembly, single message: mutations of one
  // chunk_data JSON hit the seq, crc32, payload and transfer-id fields.
  // Malformed messages must throw FormatError from parse; well-formed but
  // wrong ones (bad seq, crc mismatch, overrun) must come back as failure
  // acks from the table — never a crash.
  foresightd::ChunkMessage chunk_msg;
  chunk_msg.type = foresightd::ChunkType::kData;
  chunk_msg.transfer = "fuzz";
  chunk_msg.seq = 0;
  chunk_msg.payload = raw_bytes;
  chunk_msg.crc32 = crc32(raw_bytes.data(), raw_bytes.size());
  const std::string chunk_text = chunk_msg.to_json().dump();
  surfaces.push_back(
      {"fsd-chunk", std::vector<std::uint8_t>(chunk_text.begin(), chunk_text.end()),
       [&raw_bytes](const std::vector<std::uint8_t>& b) {
         foresightd::TransferTable table{foresightd::TransferLimits{}};
         foresightd::ChunkMessage begin;
         begin.type = foresightd::ChunkType::kBegin;
         begin.transfer = "fuzz";
         begin.total_bytes = raw_bytes.size();
         (void)table.apply(begin);
         const std::string text(b.begin(), b.end());
         (void)table.apply(foresightd::ChunkMessage::parse(json::parse(text)));
       }});
  // Interleaved transfers on one table: two woven uploads, so mutations
  // produce truncated transfers, duplicate begins, declared-size
  // mismatches, crc mismatches and cross-transfer sequence errors.
  std::vector<std::uint8_t> woven;
  {
    const auto add_frame = [&woven](const foresightd::ChunkMessage& m) {
      const std::vector<std::uint8_t> f = foresightd::encode_frame(m.to_json());
      woven.insert(woven.end(), f.begin(), f.end());
    };
    const std::size_t half = raw_bytes.size() / 2;
    for (const char* id : {"a", "b"}) {
      foresightd::ChunkMessage begin;
      begin.type = foresightd::ChunkType::kBegin;
      begin.transfer = id;
      begin.total_bytes = raw_bytes.size();
      add_frame(begin);
    }
    for (std::size_t part = 0; part < 2; ++part) {
      for (const char* id : {"a", "b"}) {
        foresightd::ChunkMessage data;
        data.type = foresightd::ChunkType::kData;
        data.transfer = id;
        data.seq = part;
        const std::size_t from = part == 0 ? 0 : half;
        const std::size_t to = part == 0 ? half : raw_bytes.size();
        data.payload.assign(raw_bytes.begin() + static_cast<std::ptrdiff_t>(from),
                            raw_bytes.begin() + static_cast<std::ptrdiff_t>(to));
        data.crc32 = crc32(data.payload.data(), data.payload.size());
        add_frame(data);
      }
    }
    for (const char* id : {"a", "b"}) {
      foresightd::ChunkMessage end;
      end.type = foresightd::ChunkType::kEnd;
      end.transfer = id;
      end.crc32 = crc32(raw_bytes.data(), raw_bytes.size());
      end.has_crc32 = true;
      add_frame(end);
    }
  }
  surfaces.push_back({"fsd-chunk-interleaved", woven,
                      [](const std::vector<std::uint8_t>& b) {
                        foresightd::TransferTable table{foresightd::TransferLimits{}};
                        foresightd::FrameParser parser;
                        parser.feed(b.data(), b.size());
                        while (auto frame = parser.next()) {
                          if (!foresightd::ChunkMessage::is_chunk(*frame)) continue;
                          (void)table.apply(foresightd::ChunkMessage::parse(*frame));
                        }
                      }});
  surfaces.push_back({"container", container_bytes,
                      [&container_path](const std::vector<std::uint8_t>& b) {
                        std::ofstream out(container_path, std::ios::binary | std::ios::trunc);
                        out.write(reinterpret_cast<const char*>(b.data()),
                                  static_cast<std::streamsize>(b.size()));
                        out.close();
                        (void)io::load(container_path);
                      }});

  // The variable-length ZFP modes: blocks end wherever their bit planes
  // do, so the serial accuracy/precision decode is a surface of its own.
  // (Appended last, so the earlier surfaces keep their per-index seeds.)
  zfp::Params zfp_accuracy;
  zfp_accuracy.mode = zfp::Mode::kFixedAccuracy;
  zfp_accuracy.tolerance = 0.01;
  surfaces.push_back({"zfp-accuracy", zfp::compress(field.data, field.dims, zfp_accuracy),
                      [](const std::vector<std::uint8_t>& b) { (void)zfp::decompress(b); }});
  zfp::Params zfp_precision;
  zfp_precision.mode = zfp::Mode::kFixedPrecision;
  zfp_precision.precision = 14;
  surfaces.push_back({"zfp-precision", zfp::compress(field.data, field.dims, zfp_precision),
                      [](const std::vector<std::uint8_t>& b) { (void)zfp::decompress(b); }});

  // The same field in 600-value FZ chunks: 7 chunks, the last one ragged,
  // so the chunk table and the multi-chunk decode paths are fuzzed too.
  // (Appended last, so the earlier surfaces keep their per-index seeds.)
  fz::Params fz_multichunk = fz_params;
  fz_multichunk.chunk_values = 600;
  surfaces.push_back({"fz-multichunk", fz::compress(field.data, field.dims, fz_multichunk),
                      [](const std::vector<std::uint8_t>& b) { (void)fz::decompress(b); }});

  int rc = 0;
  for (std::size_t i = 0; i < surfaces.size(); ++i) {
    // Distinct seed per surface so corpora don't correlate across codecs.
    rc |= run_surface(surfaces[i], cases, seed + i * 0x9E3779B9ull);
  }
  std::remove(container_path.c_str());
  std::printf("fuzz_smoke: OK (%zu surfaces x %zu cases, seed %llu)\n", surfaces.size(),
              cases, static_cast<unsigned long long>(seed));
  return rc;
}
