/// \file test_fault_injection.cpp
/// \brief Fault-injection subsystem + end-to-end failure containment.
///
/// The contract under test: a corrupted compressed stream fed to any codec
/// either decodes (possibly to wrong values) or throws a cosmo::Error —
/// never a crash, hang, or unbounded allocation. Transient device faults
/// are retried with backoff; device-OOM degrades to the matching host
/// codec; sweeps and pipelines record failed rows and keep going.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/fault.hpp"
#include "common/telemetry.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"
#include "foresight/pipeline.hpp"
#include "gpu/specs.hpp"

namespace cosmo {
namespace {

using foresight::CBench;
using foresight::CBenchResult;
using foresight::CompressorConfig;
using foresight::CompressResult;
using foresight::DecompressResult;
using foresight::make_compressor;

io::Container small_nyx(std::size_t dim = 16) {
  NyxConfig config;
  config.dim = dim;
  return generate_nyx(config);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// FaultPlan unit behavior
// ---------------------------------------------------------------------------

TEST(FaultPlan, ApplySemantics) {
  std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x00, 0x00};
  fault::FaultPlan::apply(bytes, fault::Corruption::kBitFlip, 2, 3);
  EXPECT_EQ(bytes[2], 1u << 3);
  fault::FaultPlan::apply(bytes, fault::Corruption::kBitFlip, 2, 3);  // flips back
  EXPECT_EQ(bytes[2], 0u);

  bytes = {1, 2, 3, 4, 5};
  fault::FaultPlan::apply(bytes, fault::Corruption::kZeroRun, 1, 2);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 0, 0, 4, 5}));
  fault::FaultPlan::apply(bytes, fault::Corruption::kZeroRun, 3, 100);  // clamped
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 0, 0, 0, 0}));

  fault::FaultPlan::apply(bytes, fault::Corruption::kTruncate, 2, 0);
  EXPECT_EQ(bytes.size(), 2u);

  std::vector<std::uint8_t> empty;
  fault::FaultPlan::apply(empty, fault::Corruption::kBitFlip, 0, 0);
  fault::FaultPlan::apply(empty, fault::Corruption::kZeroRun, 0, 8);
  EXPECT_TRUE(empty.empty());
}

TEST(FaultPlan, CorruptIsSeededAndDeterministic) {
  fault::Config cfg;
  cfg.corrupt_probability = 1.0;
  fault::FaultPlan a(cfg);
  fault::FaultPlan b(cfg);
  for (int i = 0; i < 16; ++i) {
    std::vector<std::uint8_t> sa(64, 0xAB), sb(64, 0xAB);
    EXPECT_TRUE(a.corrupt(sa));
    EXPECT_TRUE(b.corrupt(sb));
    EXPECT_EQ(sa, sb) << "plans with equal seeds diverged at stream " << i;
  }
  EXPECT_EQ(a.counts().corruptions, 16u);
}

TEST(FaultPlan, DisabledPlanInjectsNothing) {
  fault::FaultPlan plan(fault::Config{});  // all knobs at their off defaults
  std::vector<std::uint8_t> bytes(32, 0x5A);
  const auto before = bytes;
  EXPECT_FALSE(plan.corrupt(bytes));
  EXPECT_EQ(bytes, before);
  EXPECT_NO_THROW(plan.maybe_throw_gpu_transient("test"));
  EXPECT_NO_THROW(plan.maybe_throw_gpu_oom("test"));
  EXPECT_NO_THROW(plan.maybe_throw_io("p", "load"));
  const auto counts = plan.counts();
  EXPECT_EQ(counts.corruptions + counts.gpu_transients + counts.gpu_ooms +
                counts.io_failures,
            0u);
}

TEST(FaultPlan, ScopeInstallsAndRestores) {
  EXPECT_EQ(fault::active(), nullptr);
  fault::FaultPlan plan(fault::Config{});
  {
    fault::Scope scope(plan);
    EXPECT_EQ(fault::active(), &plan);
  }
  EXPECT_EQ(fault::active(), nullptr);
}

// ---------------------------------------------------------------------------
// Corruption matrix: {bit-flip, truncate, zero-run} x five codecs.
// Every corrupted stream must decode or throw a cosmo::Error — no crash, no
// hang, no unbounded allocation. The session is reused across the whole
// matrix and must survive every failure (round-trip check at the end).
// ---------------------------------------------------------------------------

void run_corruption_matrix(const std::string& codec_name, const CompressorConfig& config,
                           gpu::GpuSimulator* sim) {
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto codec = make_compressor(codec_name, sim);
  const auto session = codec->open_session();

  CompressResult clean;
  session->compress(field, config, clean);
  ASSERT_FALSE(clean.bytes.empty());
  const DecompressResult reference = session->decompress(clean);

  const fault::Corruption kinds[] = {fault::Corruption::kBitFlip,
                                     fault::Corruption::kTruncate,
                                     fault::Corruption::kZeroRun};
  const std::size_t n = clean.bytes.size();
  const std::size_t offsets[] = {0, 1, n / 3, n / 2, n - 2, n - 1};
  std::size_t decoded = 0, rejected = 0;
  for (const auto kind : kinds) {
    for (const std::size_t offset : offsets) {
      for (const std::size_t arg : {std::size_t{0}, std::size_t{5}, std::size_t{64}}) {
        CompressResult corrupted;
        corrupted.bytes = clean.bytes;
        corrupted.original_values = clean.original_values;
        fault::FaultPlan::apply(corrupted.bytes, kind, offset, arg);
        DecompressResult d;
        try {
          session->decompress(corrupted, d);
          EXPECT_EQ(d.values.size(), field.data.size())
              << codec_name << ": contained decode must still match the field size";
          ++decoded;
        } catch (const Error&) {
          ++rejected;  // FormatError and friends are the contained outcome
        }
      }
    }
  }
  EXPECT_GT(decoded + rejected, 0u);

  // The session survived every corrupted decode: a clean round-trip on the
  // same session still reproduces the reference reconstruction.
  CompressResult again;
  session->compress(field, config, again);
  EXPECT_EQ(again.bytes, clean.bytes) << codec_name << ": session no longer clean";
  EXPECT_EQ(session->decompress(again).values, reference.values);
}

TEST(CorruptionMatrix, SzCpu) { run_corruption_matrix("sz-cpu", {"abs", 0.1}, nullptr); }

TEST(CorruptionMatrix, SzCpuPwRel) {
  run_corruption_matrix("sz-cpu", {"pw_rel", 0.05}, nullptr);
}

TEST(CorruptionMatrix, ZfpCpu) { run_corruption_matrix("zfp-cpu", {"rate", 8.0}, nullptr); }

TEST(CorruptionMatrix, GpuSz) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  run_corruption_matrix("gpu-sz", {"abs", 0.1}, &sim);
}

TEST(CorruptionMatrix, CuZfp) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  run_corruption_matrix("cuzfp", {"rate", 8.0}, &sim);
}

// Same contract for the container loader: corrupted files yield FormatError
// (or a clean load when the mutation misses anything structural) — never a
// crash or a multi-gigabyte allocation.
TEST(CorruptionMatrix, ContainerLoad) {
  const auto data = small_nyx(8);
  const std::string clean_path = temp_path("fault_clean.gio");
  io::save(data, clean_path, io::Dialect::kGenericIo);
  const std::vector<std::uint8_t> clean = read_file(clean_path);
  ASSERT_GT(clean.size(), 64u);

  const std::string path = temp_path("fault_corrupt.gio");
  const fault::Corruption kinds[] = {fault::Corruption::kBitFlip,
                                     fault::Corruption::kTruncate,
                                     fault::Corruption::kZeroRun};
  std::size_t loaded = 0, rejected = 0;
  for (const auto kind : kinds) {
    // Hit every region of the file: magic, counts, names, dims, payload, CRC.
    for (std::size_t offset = 0; offset < clean.size();
         offset += 1 + clean.size() / 40) {
      auto bytes = clean;
      fault::FaultPlan::apply(bytes, kind, offset, 7);
      write_file(path, bytes);
      try {
        const io::Container c = io::load(path);
        EXPECT_EQ(c.variables.size(), data.variables.size());
        ++loaded;
      } catch (const Error&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u) << "corruption never rejected — checks not reached?";
  std::remove(clean_path.c_str());
  std::remove(path.c_str());
}

TEST(ContainerLoad, ErrorsNameVariableAndOffset) {
  const auto data = small_nyx(8);
  const std::string path = temp_path("fault_named.gio");
  io::save(data, path, io::Dialect::kGenericIo);
  auto bytes = read_file(path);
  bytes.resize(bytes.size() / 2);  // cut mid-payload
  write_file(path, bytes);
  try {
    (void)io::load(path);
    FAIL() << "truncated container loaded";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("container:"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Transient GPU faults: bounded retry with the default backoff schedule
// ---------------------------------------------------------------------------

TEST(Retry, TransientFaultRetriedThenSucceeds) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_transient_every = 2;  // device ops 2, 4, ... fault
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);
  const auto cuzfp = make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const CompressResult first = session->compress(field, {"rate", 8.0});
  EXPECT_EQ(first.telemetry.device_attempts, 1);  // op 1 passes
  const CompressResult second = session->compress(field, {"rate", 8.0});
  EXPECT_EQ(second.telemetry.device_attempts, 2);  // op 2 faults, retry op 3 passes
  EXPECT_EQ(plan.counts().gpu_transients, 1u);
  EXPECT_EQ(first.bytes, second.bytes) << "retries must not change the stream";
}

TEST(Retry, ExhaustedRetriesPropagateTransientError) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_transient_every = 1;  // every device op faults
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);
  const auto cuzfp = make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  EXPECT_THROW((void)session->compress(field, {"rate", 8.0}), TransientError);
  EXPECT_EQ(plan.counts().gpu_transients, 3u);  // one per attempt
}

// ---------------------------------------------------------------------------
// Device-OOM: fall back to the matching host codec, bit-identical stream
// ---------------------------------------------------------------------------

TEST(Fallback, CuZfpOomFallsBackToHostZfp) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_oom_every = 1;
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto cuzfp = make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();
  const CompressResult c = session->compress(field, {"rate", 8.0});
  EXPECT_TRUE(c.telemetry.cpu_fallback);
  EXPECT_FALSE(c.telemetry.has_gpu_timing);
  EXPECT_FALSE(c.throughput_reportable);
  EXPECT_GE(c.seconds(), 0.0);

  // The fallback stream is bit-identical to the host codec's.
  const auto host = make_compressor("zfp-cpu");
  EXPECT_EQ(c.bytes, host->open_session()->compress(field, {"rate", 8.0}).bytes);

  const DecompressResult d = session->decompress(c);
  EXPECT_TRUE(d.telemetry.cpu_fallback);
  EXPECT_EQ(d.values.size(), field.data.size());
  EXPECT_GE(plan.counts().gpu_ooms, 2u);
}

TEST(Fallback, GpuSzOomFallsBackToHostSz) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_oom_every = 1;
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto gpu_sz = make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();
  const CompressResult c = session->compress(field, {"abs", 0.1});
  EXPECT_TRUE(c.telemetry.cpu_fallback);
  EXPECT_FALSE(c.telemetry.has_gpu_timing);
  EXPECT_FALSE(c.throughput_reportable);

  const auto host = make_compressor("sz-cpu");
  EXPECT_EQ(c.bytes, host->open_session()->compress(field, {"abs", 0.1}).bytes);

  const DecompressResult d = session->decompress(c);
  EXPECT_TRUE(d.telemetry.cpu_fallback);
  EXPECT_EQ(d.values.size(), field.data.size());
}

TEST(Fallback, GpuSzOomRunsTheKernelOnce) {
  // The device session keeps the stream its one kernel run produced: an OOM
  // in the device model costs no second host compression.
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  gpu::GpuSimulator clean_sim(gpu::find_device("V100"));
  const auto clean = make_compressor("gpu-sz", &clean_sim)->open_session()->compress(
      field, {"abs", 0.1});

  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_oom_every = 1;
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);
  const auto gpu_sz = make_compressor("gpu-sz", &sim);
  const auto session = gpu_sz->open_session();
  telemetry::Tracer::disable();
  telemetry::Tracer::clear();
  telemetry::Tracer::enable();
  const CompressResult c = session->compress(field, {"abs", 0.1});
  telemetry::Tracer::disable();
  std::size_t kernel_spans = 0;
  for (const auto& span : telemetry::Tracer::snapshot()) {
    if (std::string(span.name) == "sz.lorenzo_quantize") ++kernel_spans;
  }
  telemetry::Tracer::clear();
  EXPECT_EQ(kernel_spans, 1u);
  EXPECT_EQ(c.bytes, clean.bytes);
  EXPECT_TRUE(c.telemetry.cpu_fallback);
  EXPECT_FALSE(c.throughput_reportable);
  EXPECT_EQ(plan.counts().gpu_ooms, 1u);
}

TEST(Fallback, OomFreeJobsResetTheFallbackFlags) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  fault::Config cfg;
  cfg.gpu_oom_every = 3;  // only device op 3 faults
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto cuzfp = make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();
  CompressResult c;
  session->compress(field, {"rate", 8.0}, c);  // op 1: clean
  EXPECT_FALSE(c.telemetry.cpu_fallback);
  session->compress(field, {"rate", 8.0}, c);  // op 2: clean
  session->compress(field, {"rate", 8.0}, c);  // op 3: OOM -> fallback
  EXPECT_TRUE(c.telemetry.cpu_fallback);
  session->compress(field, {"rate", 8.0}, c);  // op 4 (fresh counter run): clean
  EXPECT_FALSE(c.telemetry.cpu_fallback) << "stale fallback flag survived result reuse";
  EXPECT_TRUE(c.telemetry.has_gpu_timing);
  EXPECT_TRUE(c.throughput_reportable);
}

// ---------------------------------------------------------------------------
// Session reuse after a mid-job throw (regression)
// ---------------------------------------------------------------------------

TEST(SessionReuse, GpuSessionSurvivesTransientExhaustion) {
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto cuzfp = make_compressor("cuzfp", &sim);
  const auto session = cuzfp->open_session();

  fault::Config cfg;
  cfg.gpu_transient_every = 1;
  fault::FaultPlan plan(cfg);
  sim.set_fault_plan(&plan);
  CompressResult c;
  EXPECT_THROW(session->compress(field, {"rate", 8.0}, c), TransientError);

  sim.set_fault_plan(nullptr);
  session->compress(field, {"rate", 8.0}, c);
  const DecompressResult d = session->decompress(c);
  EXPECT_EQ(d.values.size(), field.data.size());

  // Bit-identical to a never-faulted session.
  EXPECT_EQ(c.bytes, cuzfp->open_session()->compress(field, {"rate", 8.0}).bytes);
}

TEST(SessionReuse, CpuSessionSurvivesDecodeThrow) {
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  const auto codec = make_compressor("sz-cpu");
  const auto session = codec->open_session();

  const CompressResult clean = session->compress(field, {"abs", 0.1});
  const DecompressResult reference = session->decompress(clean);

  CompressResult bad;
  bad.bytes.assign(clean.bytes.begin(), clean.bytes.begin() + 10);
  bad.original_values = clean.original_values;
  EXPECT_THROW((void)session->decompress(bad), Error);

  const DecompressResult again = session->decompress(clean);
  EXPECT_EQ(again.values, reference.values);
}

// ---------------------------------------------------------------------------
// Sweep / pipeline containment
// ---------------------------------------------------------------------------

TEST(Containment, SweepRecordsFailedRowsAndContinues) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  fault::Config cfg;
  cfg.corrupt_probability = 1.0;
  cfg.corrupt_bit_flip = false;  // truncation reliably breaks the decode
  cfg.corrupt_zero_run = false;
  fault::FaultPlan plan(cfg);
  fault::Scope scope(plan);

  CBench bench({.keep_reconstructed = false,
                .on_error = foresight::OnError::kContinue});
  const auto results = bench.sweep(data, *codec, {{"rate", 8.0}});
  EXPECT_EQ(results.size(), 6u);
  EXPECT_EQ(plan.counts().corruptions, 6u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.status == "ok" || r.status == "failed") << r.status;
    if (r.status == "failed") {
      EXPECT_FALSE(r.error.empty());
      EXPECT_GT(r.original_bytes, 0u);  // identity columns survive
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_NE(format_results(results).find("FAILED"), std::string::npos);
}

TEST(Containment, SweepAbortsWhenAsked) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  fault::Config cfg;
  cfg.corrupt_probability = 1.0;
  cfg.corrupt_bit_flip = false;
  cfg.corrupt_zero_run = false;
  fault::FaultPlan plan(cfg);
  fault::Scope scope(plan);

  CBench bench;  // on_error defaults to kAbort
  EXPECT_THROW((void)bench.sweep(data, *codec, {{"rate", 8.0}}), Error);
}

TEST(Containment, ParallelSweepRecordsFailedRows) {
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  fault::Config cfg;
  cfg.corrupt_probability = 1.0;
  cfg.corrupt_bit_flip = false;
  cfg.corrupt_zero_run = false;
  fault::FaultPlan plan(cfg);
  fault::Scope scope(plan);

  CBench bench({.keep_reconstructed = false,
                .threads = 4,
                .on_error = foresight::OnError::kContinue});
  const auto results = bench.sweep(data, *codec, {{"rate", 4.0}, {"rate", 8.0}});
  EXPECT_EQ(results.size(), 12u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (r.status == "failed") ++failed;
  }
  EXPECT_GT(failed, 0u);
}

TEST(Containment, OverallRatioSkipsFailedRows) {
  std::vector<CBenchResult> results(3);
  results[0].original_bytes = 1000;
  results[0].compressed_bytes = 100;
  results[1].original_bytes = 1000;
  results[1].compressed_bytes = 400;
  results[2].original_bytes = 1000;  // failed row: no stream
  results[2].status = "failed";
  EXPECT_DOUBLE_EQ(CBench::overall_ratio(results), 4.0);  // 2000/500, row 2 skipped

  std::vector<CBenchResult> all_failed(1);
  all_failed[0].status = "failed";
  EXPECT_THROW((void)CBench::overall_ratio(all_failed), InvalidArgument);
}

TEST(Containment, PipelineWithInjectedFaultsCompletes) {
  const std::string out = temp_path("fault_pipeline_out");
  const json::Value config = json::parse(R"({
    "output": ")" + out + R"(",
    "dataset": {"type": "nyx", "dim": 16},
    "runs": [{"compressor": "zfp-cpu",
              "fields": ["baryon_density", "temperature"],
              "configs": [{"mode": "rate", "value": 8}]}],
    "faults": {"corrupt_probability": 1.0,
               "corrupt_bit_flip": false, "corrupt_zero_run": false}
  })");
  const auto summary = foresight::run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok) << "failed jobs must be contained, not fatal";
  EXPECT_EQ(summary.results.size(), 2u);
  EXPECT_GT(summary.injected_faults, 0u);
  EXPECT_GT(summary.failed_jobs, 0u);
  for (const auto& r : summary.results) {
    EXPECT_TRUE(r.status == "ok" || r.status == "failed");
  }
}

TEST(Containment, PipelineFaultFreeRunReportsNoFailures) {
  const std::string out = temp_path("fault_pipeline_clean");
  const json::Value config = json::parse(R"({
    "output": ")" + out + R"(",
    "dataset": {"type": "nyx", "dim": 16},
    "runs": [{"compressor": "zfp-cpu",
              "fields": ["baryon_density"],
              "configs": [{"mode": "rate", "value": 8}]}]
  })");
  const auto summary = foresight::run_pipeline(config);
  EXPECT_TRUE(summary.workflow_ok);
  EXPECT_EQ(summary.failed_jobs, 0u);
  EXPECT_EQ(summary.injected_faults, 0u);
}

// ---------------------------------------------------------------------------
// I/O fault injection
// ---------------------------------------------------------------------------

TEST(IoFaults, EveryNthIoCallThrows) {
  const auto data = small_nyx(8);
  const std::string path = temp_path("fault_io.gio");
  fault::Config cfg;
  cfg.io_failure_every = 2;
  fault::FaultPlan plan(cfg);
  fault::Scope scope(plan);
  EXPECT_NO_THROW(io::save(data, path, io::Dialect::kGenericIo));  // op 1
  EXPECT_THROW((void)io::load(path), IoError);                     // op 2 faults
  EXPECT_NO_THROW((void)io::load(path));                           // op 3
  EXPECT_EQ(plan.counts().io_failures, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Byte-identical guarantee with faults disabled
// ---------------------------------------------------------------------------

TEST(Disabled, InactivePlanPreservesStreamsAndModeledTimings) {
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;

  gpu::GpuSimulator bare_sim(gpu::find_device("V100"));
  const auto bare = make_compressor("cuzfp", &bare_sim);
  const CompressResult without = bare->open_session()->compress(field, {"rate", 8.0});

  fault::FaultPlan plan(fault::Config{});  // installed but fully disabled
  fault::Scope scope(plan);
  gpu::GpuSimulator scoped_sim(gpu::find_device("V100"));
  const auto scoped = make_compressor("cuzfp", &scoped_sim);
  const CompressResult with = scoped->open_session()->compress(field, {"rate", 8.0});

  EXPECT_EQ(without.bytes, with.bytes);
  // The jitter stream must be untouched: modeled timings match exactly.
  EXPECT_DOUBLE_EQ(without.seconds(), with.seconds());
}

}  // namespace
}  // namespace cosmo
