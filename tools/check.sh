#!/usr/bin/env bash
# Repo health check: fails if build artifacts are tracked, then does a fresh
# out-of-tree build with -Wall -Wextra -Werror and runs the full test suite.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)
#        tools/check.sh --tsan [build-dir]
#        tools/check.sh --asan [build-dir]
#        tools/check.sh --ubsan [build-dir]
#        tools/check.sh --fuzz-smoke [build-dir]
#        tools/check.sh --bench-smoke [build-dir]
#        tools/check.sh --trace-smoke [build-dir]
#        tools/check.sh --optimizer-smoke [build-dir]
#        tools/check.sh --daemon-smoke [build-dir]
#
# --tsan builds with ThreadSanitizer (-fsanitize=thread) and runs the tests
# that exercise the parallel kernels (thread pool, sweep scheduler, and the
# per-kernel determinism suite). Slower than the plain run; use it whenever
# parallel_for call sites or shared-state code change.
#
# --asan builds with AddressSanitizer + UBSan and runs the codec test
# surface (bitstream, Huffman, LZSS, ZFP, the malformed-stream
# fast-path suite, the encoders' byte-identity tests against their
# reference oracles, the codec sessions behind every codec, the codec
# table and its lookups, the sweep-lattice builder, and the pipeline's
# failure paths). This is what backs the "truncated/corrupted streams never read
# out of bounds" contract; run it whenever codec hot paths, stream parsing
# or the codec sessions change.
#
# --ubsan builds with UndefinedBehaviorSanitizer alone (no ASan shadow
# memory, so it composes with workloads too large for the ASan run) and
# runs the full test suite. Use it to flush signed-overflow, misaligned
# access, and invalid-shift bugs across every component. It, --asan and
# --fuzz-smoke add float-cast-overflow, which GCC's -fsanitize=undefined
# leaves out: an out-of-range float -> int conversion is UB too.
#
# --fuzz-smoke builds the fuzz_smoke tool under ASan+UBSan and throws
# seeded corruption (500 cases per decode surface) at every codec and the
# container loader. This is the executable form of the failure-containment
# contract: corrupted streams decode or throw cosmo::Error, never crash.
#
# --bench-smoke builds Release and runs the single-thread kernel
# microbenchmarks against the committed BENCH_kernels.json, failing if any
# kernel regresses by more than 30% or if any kernel's output_crc32 differs
# from the committed value (byte-identity gate for the encode fast paths).
# Use it to catch accidental slowdowns or stream-format drift in the codec
# hot paths.
#
# --trace-smoke builds Release, runs a tiny pipeline with --trace-out and
# --metrics-out, then validates the Chrome trace with `foresight_cli
# trace-check` (well-formed events, consistent span nesting, the expected
# codec stages present) and asserts the metrics export recorded work. It
# also runs `bench_report --trace-overhead`, which fails if disabled
# tracing costs the codec hot paths more than 1%.
#
# --optimizer-smoke builds Release and runs `bench_report --optimizer` at
# small sizes: the Section V-D search runs exhaustively and guided on
# seeded Nyx + HACC snapshots, and the tool exits non-zero when a guided
# choice is unacceptable or more than 2% worse CR than the exhaustive
# winner, or when the Nyx guided search spends more than 1/3 of the
# exhaustive full evaluations or less than a 3x wall-clock win.
#
# --daemon-smoke builds foresightd + daemon_stress (Release) and runs the
# service-daemon acceptance scenario at full size: the in-process stress
# (1000+ jobs, 4 clients, mixed codecs, seeded faults — exactly-once
# statuses, byte-identical streams, budgeted drain, and the chunked
# streaming phase that round-trips a 192³ = 28 MiB field — past the 16 MiB
# frame cap — over AF_UNIX and TCP loopback), then the real binary under
# external load twice: once over TCP loopback to completion, and once over
# AF_UNIX with a mid-run SIGTERM, requiring a clean exit 0 with metrics
# flushed. Run it whenever foresightd, the wire protocol, or the
# admission/cancel primitives change.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

mode="plain"
case "${1:-}" in
  --tsan) mode="tsan"; shift ;;
  --asan) mode="asan"; shift ;;
  --ubsan) mode="ubsan"; shift ;;
  --fuzz-smoke) mode="fuzz"; shift ;;
  --bench-smoke) mode="bench"; shift ;;
  --trace-smoke) mode="trace"; shift ;;
  --optimizer-smoke) mode="optimizer"; shift ;;
  --daemon-smoke) mode="daemon"; shift ;;
esac

default_dir="build-check"
case "${mode}" in
  tsan) default_dir="build-tsan" ;;
  asan) default_dir="build-asan" ;;
  ubsan) default_dir="build-ubsan" ;;
  fuzz) default_dir="build-fuzz-smoke" ;;
  bench) default_dir="build-bench-smoke" ;;
  trace) default_dir="build-trace-smoke" ;;
  optimizer) default_dir="build-optimizer-smoke" ;;
  daemon) default_dir="build-daemon-smoke" ;;
esac
build_dir="${1:-"${repo_root}/${default_dir}"}"
jobs="$(nproc 2>/dev/null || echo 2)"

cd "${repo_root}"

# 1. No build-tree files may be tracked by git.
tracked_build="$(git ls-files -- 'build/' 'build-*/' 'bench_out/' 'foresight_out/')"
if [[ -n "${tracked_build}" ]]; then
  echo "error: build/output files are tracked by git:" >&2
  echo "${tracked_build}" | head -20 >&2
  exit 1
fi

# 2. Fresh out-of-tree configure + build with warnings on.
rm -rf "${build_dir}"
case "${mode}" in
  tsan)
    # RelWithDebInfo keeps symbols so TSan reports point at source lines.
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=thread -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    ;;
  asan|fuzz)
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all"
    ;;
  ubsan)
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined,float-cast-overflow -fno-sanitize-recover=all"
    ;;
  plain)
    # Warnings fail the plain build, so they cannot accumulate.
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror"
    ;;
  *)
    cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS="-Wall -Wextra"
    ;;
esac
if [[ "${mode}" == "bench" || "${mode}" == "optimizer" ]]; then
  cmake --build "${build_dir}" --target bench_report -j "${jobs}"
elif [[ "${mode}" == "trace" ]]; then
  cmake --build "${build_dir}" --target foresight_cli bench_report -j "${jobs}"
elif [[ "${mode}" == "fuzz" ]]; then
  cmake --build "${build_dir}" --target fuzz_smoke -j "${jobs}"
elif [[ "${mode}" == "daemon" ]]; then
  cmake --build "${build_dir}" --target foresightd daemon_stress -j "${jobs}"
else
  cmake --build "${build_dir}" -j "${jobs}"
fi

# 3. Tests.
case "${mode}" in
  tsan)
    # The parallel surface: pool/parallel_for internals, the shared job
    # scheduler (CBench sweeps, the optimizer, the daemon), every threaded
    # kernel via the cross-thread-count determinism suite, the pooled
    # dataset synthesizers and real-input P(k), and SZ's per-task
    # reconstruction tiles against the serial oracle.
    TSAN_OPTIONS="halt_on_error=1" "${build_dir}/tests/cosmo_tests" \
      --gtest_filter='ThreadPool*:*Sweep*:*Parallel*:ParallelDeterminism.*:FftTwiddleCache.*:Foresightd*:CBench*:JobScheduler.*:Optimizer*:NyxSynth.*:HaccSynth.*:PowerSpectrum.*:SzReference.*'
    ;;
  asan)
    # The codec surface: bitstream I/O, the shared chunk table, the
    # entropy/dictionary coders, ZFP block transforms, the FZ chunk kernel,
    # temporal SZ with its legacy-section decode, the malformed-stream suite
    # (truncated/corrupted inputs must throw, never touch out-of-bounds
    # memory), the encoders' byte-identity tests against their reference
    # oracles, the host and device codec sessions (reshape, retry, OOM
    # fallback, session reuse, codec-table conformance, containment), the
    # codec table and its lookups, the sweep-lattice builder, the
    # pipeline end to end, including its on_error abort path, and the
    # half-grid indexing of the real-input P(k), the synthesizers, the
    # block-sized rate estimator, SZ's block-local compress against its
    # field-sized oracle, and the optimizer's shared batches.
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      "${build_dir}/tests/cosmo_tests" \
      --gtest_filter='BitStream.*:ChunkTable.*:Huffman.*:Lzss.*:CodecFastPaths.*:EncodeFastPaths.*:ParallelDeterminism.Huffman*:ParallelDeterminism.Lzss*:ParallelDeterminism.Zfp*:ParallelDeterminism.Fz*:Zfp*.*:Fz.*:Sz.*:SzReference.*:SzTemporal.*:Robustness.*:Compressor.*:Fallback.*:Retry.*:Reshape.*:SessionReuse.*:RegistryConformance.*:Containment.*:Registry.*:Sweep.*:Pipeline.*:PowerSpectrum.*:NyxSynth.*:HaccSynth.*:RateEstimate.*:Optimizer*'
    ;;
  ubsan)
    # Full suite: UBSan alone is cheap enough to run everything.
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
    ;;
  fuzz)
    # Seeded corruption across every decode surface, under ASan+UBSan.
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      "${build_dir}/tools/fuzz_smoke" --cases 500
    ;;
  bench)
    # Regression gate against the committed kernel rates. 30% leaves
    # headroom for machine-to-machine noise while still catching real
    # fast-path regressions.
    # --check-crc is the deterministic half of the gate: every kernel's
    # output_crc32 must match the committed BENCH_kernels.json byte for
    # byte, so a stream-format change can never slip through as "noise".
    "${build_dir}/tools/bench_report" --kernels --edge 256 --repeats 3 \
      --out "${build_dir}/BENCH_kernels_smoke.json" \
      --baseline "${repo_root}/BENCH_kernels.json" --max-regress 0.30 \
      --check-crc "${repo_root}/BENCH_kernels.json"
    ;;
  optimizer)
    # Guided-vs-exhaustive gate at smoke sizes: the guided search must land
    # on an acceptable config within 2% CR of the exhaustive winner while
    # spending a third of the evaluations (and a 3x wall win on Nyx).
    "${build_dir}/tools/bench_report" --optimizer --dim 32 --particles 12000 \
      --out "${build_dir}/BENCH_optimizer_smoke.json"
    ;;
  daemon)
    # Full-size acceptance stress, in-process: 1000 jobs from 4 pipelining
    # clients over the whole codec roster with seeded faults, plus the
    # streaming phase (28 MiB chunked round-trip over AF_UNIX + TCP,
    # byte-identical to the single-shot reference). The harness exits
    # non-zero on any duplicate/missing status, any stream that differs
    # from its single-shot reference, or a drain contract breach.
    "${build_dir}/tools/daemon_stress" --jobs 1000 --clients 4

    # Real binary with both listeners up: AF_UNIX socket + an ephemeral
    # TCP loopback port written to a file once bound.
    sock="${build_dir}/foresightd-smoke.sock"
    metrics="${build_dir}/foresightd-smoke-metrics.json"
    portfile="${build_dir}/foresightd-smoke.port"
    rm -f "${portfile}"
    "${build_dir}/tools/foresightd" --socket "${sock}" --workers 2 \
      --queue-capacity 32 --tcp-port 0 --tcp-port-file "${portfile}" \
      --metrics-out "${metrics}" &
    daemon_pid=$!
    for _ in $(seq 1 50); do [[ -S "${sock}" && -s "${portfile}" ]] && break; sleep 0.1; done
    if [[ ! -S "${sock}" || ! -s "${portfile}" ]]; then
      echo "error: foresightd did not bind ${sock} + tcp port" >&2
      exit 1
    fi

    # TCP-loopback variant: the same external load generator, fan-in over
    # TCP, run to completion against the live daemon (no signals). Both
    # transports share one IO/admission/worker pipeline, so the same
    # exactly-once and byte-identity gates apply.
    if ! "${build_dir}/tools/daemon_stress" \
        --socket "tcp:127.0.0.1:$(cat "${portfile}")" --jobs 400 --clients 2; then
      echo "error: TCP-loopback daemon_stress reported a protocol violation" >&2
      exit 1
    fi

    # Real-binary drain: load the daemon over AF_UNIX, SIGTERM it mid-run,
    # and require a clean exit 0 with final metrics flushed.
    "${build_dir}/tools/daemon_stress" --socket "${sock}" --jobs 4000 --clients 2 &
    load_pid=$!
    sleep 1
    kill -TERM "${daemon_pid}"
    if ! wait "${daemon_pid}"; then
      echo "error: foresightd exited non-zero after SIGTERM" >&2
      exit 1
    fi
    # The daemon hanging up on the load generator mid-run is expected; the
    # generator still fails on duplicate statuses, which is what we gate on.
    if ! wait "${load_pid}"; then
      echo "error: external daemon_stress reported a protocol violation" >&2
      exit 1
    fi
    if [[ ! -s "${metrics}" ]]; then
      echo "error: foresightd did not flush metrics to ${metrics}" >&2
      exit 1
    fi
    ;;
  trace)
    # The codec table must list every codec, fz included.
    codecs_out="$("${build_dir}/tools/foresight_cli" codecs)"
    for codec in gpu-sz cuzfp sz-cpu zfp-cpu fz-cpu fz-gpu; do
      if ! grep -q "^${codec} " <<< "${codecs_out}"; then
        echo "error: codec '${codec}' missing from 'foresight_cli codecs'" >&2
        exit 1
      fi
    done
    # Tiny GPU + CPU sweep with telemetry on, then validate the exports.
    smoke_out="${build_dir}/trace-smoke"
    cat > "${build_dir}/trace_smoke.json" <<SMOKE
{
  "output": "${smoke_out}",
  "dataset": {"type": "nyx", "dim": 32, "seed": 42},
  "runs": [
    {"compressor": "cuzfp", "fields": ["baryon_density"],
     "configs": [{"mode": "rate", "value": 4}]},
    {"compressor": "sz-cpu", "fields": ["temperature"],
     "configs": [{"mode": "abs", "value": 0.1}]},
    {"compressor": "fz-cpu", "fields": ["temperature"],
     "configs": [{"mode": "abs", "value": 0.1}]}
  ],
  "jobs": 2
}
SMOKE
    "${build_dir}/tools/foresight_cli" run "${build_dir}/trace_smoke.json" \
      --trace-out trace.json --metrics-out metrics.json
    check_out="$("${build_dir}/tools/foresight_cli" trace-check "${smoke_out}/trace.json")"
    echo "${check_out}"
    # The stages the telemetry contract names must all appear in the trace.
    for span in session.open cbench.job cuzfp.compress cuzfp.decompress \
                gpu.device.compress sz.lorenzo_quantize zfp.block_scan.encode \
                fz-cpu.compress fz.compress; do
      if ! grep -q "${span}" <<< "${check_out}"; then
        echo "error: span '${span}' missing from trace" >&2
        exit 1
      fi
    done
    # The metrics export must have recorded the sweep's work.
    if ! grep -q '"cbench.jobs": 3' "${smoke_out}/metrics.json"; then
      echo "error: metrics.json did not record the 3 sweep jobs" >&2
      exit 1
    fi
    # Disabled tracing must stay under the 1% overhead contract.
    "${build_dir}/tools/bench_report" --trace-overhead --edge 64 --repeats 2 \
      --out "${build_dir}/BENCH_trace_overhead_smoke.json"
    ;;
  *)
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
    ;;
esac

echo "check.sh: OK (build dir: ${build_dir}, mode: ${mode})"
