#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (perfbench/main.cpp) against the checker
sources in src/, runs one workload and prints its report; the last
stdout line is the JSON result. Run it from the repository root:

    python3 perfbench/run.py --workload single_run --seed 1 --seconds 10 --trace 0

Workloads: single_run, serve, serve_vc (see perfbench/main.cpp). With
--trace 1 the result carries the per-layer metrics instead of the
end-to-end ones. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). --scale, --min-passes and --setup-reps override
the benchmark's settings, for the self-test only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# Program size multiplier for every workload (workloads::build scale).
SCALE = 0.35
# Each run measures at least this many passes, even past --seconds.
MIN_PASSES = 3
# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPS = 3
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "dcbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "dcbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["single_run", "serve", "serve_vc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=SCALE)
    ap.add_argument("--min-passes", type=int, default=MIN_PASSES)
    ap.add_argument("--setup-reps", type=int, default=SETUP_REPS)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "Checker.h")):
        fail("checker sources (src/) not found; run from the repository root")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--min-passes", str(args.min_passes),
           "--setup-reps", str(args.setup_reps),
           "--inputs", os.path.join(BENCH_DIR, "frozen_inputs.txt"),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
