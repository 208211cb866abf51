#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload plan-dc3 --seed 2018 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark binary and the library
it links are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to standard error.  The last line of standard output is the
result object {correct, attempted, failed, metrics}.  The exit code is
the benchmark's: 0 when every operation succeeded and every correctness
check held, non-zero otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("plan-dc3", "plan-fleet-faulted", "serve-dc3")
# Whole-invocation limit; the benchmark itself needs --seconds plus one
# repetition and its set-up.
TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build(bench_dir, build_dir)

    scratch = build_dir / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(build_dir / "sosim_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.trace:
        cmd += ["--spans-out",
                str(build_dir / f"spans-{args.workload}.jsonl")]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark printed no result (exit {proc.returncode})", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result["correct"]:
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
