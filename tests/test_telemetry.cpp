/// The observability contract: StageTelemetry rollups, the span tracer, the
/// metrics registry — and, most importantly, that turning tracing on changes
/// *nothing* about what the codecs produce (streams and modeled GPU timings
/// byte-identical with tracing on or off).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/telemetry.hpp"
#include "cosmo/nyx_synth.hpp"
#include "foresight/cbench.hpp"
#include "foresight/compressor.hpp"
#include "gpu/specs.hpp"
#include "json/json.hpp"

namespace cosmo::foresight {
namespace {

using telemetry::MetricsRegistry;
using telemetry::SpanRecord;
using telemetry::Tracer;

io::Container small_nyx() {
  NyxConfig config;
  config.dim = 16;
  return generate_nyx(config);
}

/// Ensures the tracer is off (and stays off) around a test body, even when
/// an assertion fails mid-test.
struct TracerOffGuard {
  TracerOffGuard() { Tracer::disable(); }
  ~TracerOffGuard() {
    Tracer::disable();
    Tracer::clear();
  }
};

// ---------------------------------------------------------------------------
// StageTelemetry value semantics
// ---------------------------------------------------------------------------

TEST(StageTelemetryTest, LifecycleHelpers) {
  StageTelemetry t;
  t.seconds = 1.0;
  t.cpu_fallback = true;
  t.device_attempts = 3;
  t.reset_cpu();
  EXPECT_EQ(t.seconds, 0.0);
  EXPECT_FALSE(t.has_gpu_timing);
  EXPECT_FALSE(t.cpu_fallback);
  EXPECT_EQ(t.device_attempts, 1);

  t.reset_gpu();
  EXPECT_TRUE(t.has_gpu_timing);

  TimingBreakdown timing;
  timing.init = 0.25;
  timing.kernel = 0.5;
  t.set_device(timing, 2);
  EXPECT_TRUE(t.has_gpu_timing);
  EXPECT_EQ(t.seconds, timing.total());
  EXPECT_EQ(t.device_attempts, 2);

  t.mark_cpu_fallback();
  EXPECT_FALSE(t.has_gpu_timing);
  EXPECT_TRUE(t.cpu_fallback);
  EXPECT_EQ(t.gpu_timing.total(), 0.0);
  EXPECT_EQ(t.device_attempts, 2) << "fallback keeps the attempt count";
}

TEST(StageTelemetryTest, PairRollups) {
  StageTelemetry c, d;
  EXPECT_FALSE(any_cpu_fallback(c, d));
  EXPECT_EQ(max_device_attempts(c, d), 1);
  d.cpu_fallback = true;
  d.device_attempts = 4;
  EXPECT_TRUE(any_cpu_fallback(c, d));
  EXPECT_EQ(max_device_attempts(c, d), 4);
}

// ---------------------------------------------------------------------------
// Tracer: recording, nesting, wrap-around, export
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  TracerOffGuard guard;
  { TRACE_SPAN("test.disabled"); }
  EXPECT_TRUE(Tracer::snapshot().empty());
}

TEST(TracerTest, RecordsNamesDepthsAndOrder) {
  TracerOffGuard guard;
  Tracer::enable();
  {
    TRACE_SPAN("test.outer");
    { TRACE_SPAN("test.inner"); }
    { TRACE_SPAN("test.inner"); }
  }
  Tracer::disable();
  const auto spans = Tracer::snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // snapshot() is start-ordered: outer first, then the two inners.
  EXPECT_STREQ(spans[0].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_STREQ(spans[1].name, "test.inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "test.inner");
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[2].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns) << "outer must contain the inners";
}

TEST(TracerTest, SpanOpenAtDisableStillRecords) {
  TracerOffGuard guard;
  Tracer::enable();
  {
    TRACE_SPAN("test.cut_short");
    Tracer::disable();
  }
  // A span that began under an enabled tracer completes its measurement:
  // the ring is still there, and dropping it would undercount the stage
  // that happened to straddle the disable.
  const auto spans = Tracer::snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.cut_short");
}

TEST(TracerTest, RingWrapCountsDrops) {
  TracerOffGuard guard;
  // The implementation may round the capacity up; whatever the ring holds,
  // recording far past it must report drops and keep only the newest spans.
  Tracer::enable(/*capacity=*/16);
  constexpr int kRecorded = 4096;
  for (int i = 0; i < kRecorded; ++i) {
    TRACE_SPAN("test.wrap");
  }
  Tracer::disable();
  const auto spans = Tracer::snapshot();
  EXPECT_LT(spans.size(), static_cast<std::size_t>(kRecorded));
  EXPECT_EQ(Tracer::dropped(), kRecorded - spans.size());
}

TEST(TracerTest, ClearDropsSpansKeepsEnabled) {
  TracerOffGuard guard;
  Tracer::enable();
  { TRACE_SPAN("test.before_clear"); }
  Tracer::clear();
  EXPECT_TRUE(Tracer::enabled());
  EXPECT_TRUE(Tracer::snapshot().empty());
  { TRACE_SPAN("test.after_clear"); }
  EXPECT_EQ(Tracer::snapshot().size(), 1u);
}

TEST(TracerTest, ThreadsGetDistinctTids) {
  TracerOffGuard guard;
  Tracer::enable();
  { TRACE_SPAN("test.main_thread"); }
  std::thread worker([] { TRACE_SPAN("test.worker_thread"); });
  worker.join();
  Tracer::disable();
  const auto spans = Tracer::snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(TracerTest, ChromeTraceJsonIsValidAndComplete) {
  TracerOffGuard guard;
  Tracer::enable();
  {
    TRACE_SPAN("test.export_outer");
    { TRACE_SPAN("test.export_inner"); }
  }
  Tracer::disable();
  // The export must parse with the repo's own (RFC 8259) parser and carry
  // one complete event per span with the fields trace-check relies on.
  const json::Value trace = json::parse(Tracer::chrome_trace_json());
  const json::Array& events = trace.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, double> depth_by_name;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    EXPECT_TRUE(ev.contains("ts"));
    EXPECT_TRUE(ev.contains("pid"));
    EXPECT_TRUE(ev.contains("tid"));
    depth_by_name[ev.at("name").as_string()] = ev.at("args").at("depth").as_number();
  }
  EXPECT_EQ(depth_by_name.at("test.export_outer"), 0.0);
  EXPECT_EQ(depth_by_name.at("test.export_inner"), 1.0);
}

// ---------------------------------------------------------------------------
// Metrics: counters, gauges, histograms, registry export
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogram) {
  telemetry::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  telemetry::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);
  g.maximize(100);
  EXPECT_EQ(g.value(), 3) << "maximize must not touch the last value";
  EXPECT_EQ(g.max(), 100);

  telemetry::Histogram h;
  h.observe(1);     // bit_width 1
  h.observe(1000);  // bit_width 10
  h.observe_seconds(1e-6);  // 1000 ns -> bit_width 10
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 2001u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(10), 2u);
}

TEST(MetricsTest, RegistryReturnsStableObjectsAndValidJson) {
  auto& reg = MetricsRegistry::instance();
  telemetry::Counter& a = reg.counter("test.registry_counter");
  telemetry::Counter& b = reg.counter("test.registry_counter");
  EXPECT_EQ(&a, &b) << "same name must resolve to the same object";
  a.add(5);
  reg.gauge("test.registry_gauge").set(-3);
  reg.histogram("test.registry_hist").observe(8);

  const json::Value doc = json::parse(reg.to_json());
  EXPECT_EQ(doc.at("counters").at("test.registry_counter").as_number(), 5.0);
  EXPECT_EQ(doc.at("gauges").at("test.registry_gauge").at("value").as_number(), -3.0);
  EXPECT_EQ(doc.at("histograms").at("test.registry_hist").at("count").as_number(), 1.0);

  a.reset();
  EXPECT_EQ(reg.counter("test.registry_counter").value(), 0u);
}

// ---------------------------------------------------------------------------
// The no-perturbation contract: tracing on/off changes nothing observable
// ---------------------------------------------------------------------------

/// Runs `codec` over the field with tracing off, then again (on an
/// identically seeded simulator when `gpu_name` is set) with tracing on, and
/// requires byte-identical streams, reconstructions, and modeled timings.
void expect_tracing_invariant(const std::string& codec_name, const char* gpu_name,
                              const CompressorConfig& config) {
  TracerOffGuard guard;
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;

  // Two simulators with identical specs consume identical jitter streams,
  // so even the modeled timings must match exactly across the two runs.
  gpu::GpuSimulator sim_off(gpu::find_device("V100"));
  gpu::GpuSimulator sim_on(gpu::find_device("V100"));

  const auto codec_off = make_compressor(codec_name, gpu_name ? &sim_off : nullptr);
  const CBenchResult off = CBench().run_one(field, *codec_off, config);

  Tracer::enable();
  const auto codec_on = make_compressor(codec_name, gpu_name ? &sim_on : nullptr);
  const CBenchResult on = CBench().run_one(field, *codec_on, config);
  Tracer::disable();

  EXPECT_FALSE(Tracer::snapshot().empty()) << "the traced run must record spans";
  EXPECT_EQ(off.compressed_bytes, on.compressed_bytes);
  EXPECT_EQ(off.stream_crc32, on.stream_crc32)
      << codec_name << ": stream differs with tracing on";
  EXPECT_EQ(off.reconstructed, on.reconstructed);
  EXPECT_EQ(off.compress.seconds == off.compress.seconds, true);  // not NaN
  EXPECT_EQ(off.compress.has_gpu_timing, on.compress.has_gpu_timing);
  if (off.compress.has_gpu_timing) {
    EXPECT_EQ(off.compress.seconds, on.compress.seconds);
    EXPECT_EQ(off.decompress.seconds, on.decompress.seconds);
    EXPECT_EQ(off.compress.gpu_timing.init, on.compress.gpu_timing.init);
    EXPECT_EQ(off.compress.gpu_timing.kernel, on.compress.gpu_timing.kernel);
    EXPECT_EQ(off.compress.gpu_timing.memcpy, on.compress.gpu_timing.memcpy);
    EXPECT_EQ(off.compress.gpu_timing.free, on.compress.gpu_timing.free);
    EXPECT_EQ(off.decompress.gpu_timing.kernel, on.decompress.gpu_timing.kernel);
  }
}

TEST(TracingInvariance, GpuSz) { expect_tracing_invariant("gpu-sz", "V100", {"abs", 0.1}); }
TEST(TracingInvariance, CuZfp) { expect_tracing_invariant("cuzfp", "V100", {"rate", 8.0}); }
TEST(TracingInvariance, SzCpu) { expect_tracing_invariant("sz-cpu", nullptr, {"abs", 0.1}); }
TEST(TracingInvariance, ZfpCpu) {
  expect_tracing_invariant("zfp-cpu", nullptr, {"rate", 8.0});
}

// ---------------------------------------------------------------------------
// Span determinism across sweep thread counts
// ---------------------------------------------------------------------------

/// Name -> count census of the recorded spans, with the scheduler-level
/// spans excluded: "sweep." spans are thread-count-dependent by design
/// (one sweep.worker per worker loop), and session lifetimes
/// belong to the scheduler too (the serial sweep reuses one session, the
/// parallel sweep opens one per worker). The per-job codec spans must be
/// invariant.
std::map<std::string, std::size_t> job_span_census(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::size_t> census;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name.rfind("sweep.", 0) == 0 || name == "session.open") continue;
    ++census[name];
  }
  return census;
}

TEST(SpanDeterminism, SweepThreadCountDoesNotChangeJobSpans) {
  TracerOffGuard guard;
  const auto data = small_nyx();
  const auto codec = make_compressor("zfp-cpu");
  ASSERT_TRUE(codec->concurrent_sessions_safe());
  const std::vector<CompressorConfig> configs = {{"rate", 4.0}, {"rate", 8.0}};

  Tracer::enable();
  CBench serial_bench({.dataset_name = "nyx", .threads = 1});
  (void)serial_bench.sweep(data, *codec, configs);
  const auto serial_census = job_span_census(Tracer::snapshot());

  Tracer::enable();  // re-arms with a fresh ring
  CBench parallel_bench({.dataset_name = "nyx", .threads = 4});
  (void)parallel_bench.sweep(data, *codec, configs);
  const auto parallel_census = job_span_census(Tracer::snapshot());
  Tracer::disable();

  EXPECT_FALSE(serial_census.empty());
  EXPECT_EQ(serial_census, parallel_census)
      << "per-job spans must not depend on the sweep thread count";
  // The fixed stages of this sweep: one cbench.job + session spans per row.
  const std::size_t rows = 6u * configs.size();
  EXPECT_EQ(serial_census.at("cbench.job"), rows);
  EXPECT_EQ(serial_census.at("zfp-cpu.compress"), rows);
  EXPECT_EQ(serial_census.at("zfp-cpu.decompress"), rows);
  EXPECT_EQ(serial_census.at("zfp.block_scan.encode"), rows);
  EXPECT_EQ(serial_census.at("zfp.block_scan.decode"), rows);
}

// ---------------------------------------------------------------------------
// run_one vs a hand-staged session: identical fallback/retry reporting
// ---------------------------------------------------------------------------

TEST(RunOneTelemetry, ReportsFallbackIdenticallyToStagedSession) {
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  fault::Config cfg;
  cfg.gpu_oom_every = 1;  // every device op OOMs -> host fallback everywhere

  gpu::GpuSimulator sim_staged(gpu::find_device("V100"));
  fault::FaultPlan plan_staged(cfg);
  sim_staged.set_fault_plan(&plan_staged);
  const auto codec_staged = make_compressor("cuzfp", &sim_staged);
  const auto session = codec_staged->open_session();
  const CompressResult c = session->compress(field, {"rate", 8.0});
  const DecompressResult d = session->decompress(c);

  gpu::GpuSimulator sim_bench(gpu::find_device("V100"));
  fault::FaultPlan plan_bench(cfg);
  sim_bench.set_fault_plan(&plan_bench);
  const auto codec_bench = make_compressor("cuzfp", &sim_bench);
  CBench bench({.dataset_name = "nyx"});
  const CBenchResult row = bench.run_one(field, *codec_bench, {"rate", 8.0});

  // The row carries the stages' telemetry verbatim.
  EXPECT_TRUE(row.cpu_fallback());
  EXPECT_EQ(any_cpu_fallback(c.telemetry, d.telemetry), row.cpu_fallback());
  EXPECT_EQ(max_device_attempts(c.telemetry, d.telemetry), row.device_attempts());
  EXPECT_EQ(c.telemetry.has_gpu_timing, row.compress.has_gpu_timing);
  EXPECT_EQ(c.telemetry.cpu_fallback, row.compress.cpu_fallback);
  EXPECT_EQ(d.telemetry.cpu_fallback, row.decompress.cpu_fallback);
  EXPECT_FALSE(row.throughput_reportable);
  EXPECT_EQ(c.bytes.size(), row.compressed_bytes);
}

TEST(RunOneTelemetry, CleanGpuRunReportsNoFallback) {
  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;
  gpu::GpuSimulator sim(gpu::find_device("V100"));
  const auto codec = make_compressor("cuzfp", &sim);
  const CBenchResult out = CBench().run_one(field, *codec, {"rate", 8.0});
  EXPECT_FALSE(out.cpu_fallback());
  EXPECT_EQ(out.device_attempts(), 1);
  EXPECT_TRUE(out.compress.has_gpu_timing);
}

// ---------------------------------------------------------------------------
// Fault injection shows up in the metrics registry
// ---------------------------------------------------------------------------

TEST(FaultMetrics, RetriesAndFallbacksAreCounted) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("gpu.transient_retries").reset();
  reg.counter("codec.cpu_fallbacks").reset();

  const auto data = small_nyx();
  const Field& field = data.find("baryon_density").field;

  {  // Transient on device op 2 -> exactly one retry.
    gpu::GpuSimulator sim(gpu::find_device("V100"));
    fault::Config cfg;
    cfg.gpu_transient_every = 2;
    fault::FaultPlan plan(cfg);
    sim.set_fault_plan(&plan);
    const auto codec = make_compressor("cuzfp", &sim);
    const CBenchResult out = CBench().run_one(field, *codec, {"rate", 8.0});
    EXPECT_EQ(out.device_attempts(), 2);
  }
  EXPECT_GE(reg.counter("gpu.transient_retries").value(), 1u);

  {  // OOM on every device op -> compress and decompress both fall back.
    gpu::GpuSimulator sim(gpu::find_device("V100"));
    fault::Config cfg;
    cfg.gpu_oom_every = 1;
    fault::FaultPlan plan(cfg);
    sim.set_fault_plan(&plan);
    const auto codec = make_compressor("cuzfp", &sim);
    const CBenchResult out = CBench().run_one(field, *codec, {"rate", 8.0});
    EXPECT_TRUE(out.cpu_fallback());
  }
  EXPECT_GE(reg.counter("codec.cpu_fallbacks").value(), 2u);
}

}  // namespace
}  // namespace cosmo::foresight
