#!/usr/bin/env python3
"""Builds the gbbench package from source and runs one benchmark workload.

    python3 gbbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 gbbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/gbbench
(default .bench_build/gbbench). The binary's output is passed through; its
last line is the JSON result, and its metric names are checked against
BENCHMARK.json. Any failure exits non-zero without printing a result.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print(f"gbbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gbbench")


def build(out):
    """Configures once, then (re)builds; the lock serializes concurrent runs."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                die("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            die("build failed")
    return os.path.join(out, "gbbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no library sources under {ROOT}/src", 2)

    out = build_dir()
    binary = build(out)
    if args.selftest:
        sys.exit(subprocess.run([binary, "selftest"], cwd=out,
                                timeout=RUN_TIMEOUT_S).returncode)

    workdir = os.path.join(out, f"run-{os.getpid()}")
    spans_dir = os.path.join(out, "spans")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--spans", os.path.join(spans_dir,
                                   f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        die(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        die("the last line of the output is not a JSON result")
    if list(result.get("metrics", {})) != expected_metrics(args.trace):
        sys.stderr.write(proc.stdout)
        die("the result's metrics do not match BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
