#!/usr/bin/env python3
"""Build foresight_bench from source and run one workload of the benchmark.

Usage, from the repository root:

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/suite (Release). Build output and the
benchmark's own report go to standard error; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A failed build or a failed run exits non-zero without that line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = Path(".bench_build") / "suite"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", "bench/suite", "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "foresight_bench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not Path("src/CMakeLists.txt").exists():
        sys.exit("run.py: the library sources (src/) are missing; nothing to build")
    # The compiler and the benchmark keep their temporary files in the tree.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(ROOT / tmp)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    out = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(BUILD / "foresight_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    out.unlink(missing_ok=True)
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    # Exit 1 is a failed correctness check: the run still reports, with
    # correct false. Any other failure (2: not a Release build, or a Tracer
    # ring that wrapped) reports nothing.
    if code not in (0, 1) or not out.exists():
        sys.exit(code or 1)

    run = json.loads(out.read_text())
    metrics = run["per_layer"] if args.trace else run["metrics"]
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
