#!/usr/bin/env python3
"""Builds and runs the open-loop macro benchmark for one workload.

Run from the root of a checkout:

    python3 macrobench/run.py --workload hot-read --seed 1 --seconds 25 --trace 0

The binary is configured and built from source (Release) under
$CARGO_TARGET_DIR/macrobench, default .bench_build/macrobench, on first use.
Every line but the last is a human-readable report: run context, input
fingerprint, every metric with its unit and sample count, ramp steps and
prediction checks. The last line is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds the end_to_end metrics of
BENCHMARK.json with --trace 0 and the per_layer ones with --trace 1.

Exit codes: 0 ok; 1 a correctness check failed (the result line says
correct: false); 2 build or usage error; 3 the run is invalid because the
load generator ran later than the workload's lag bound (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "macrobench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(build_dir, "macrobench")
    return binary if os.path.exists(binary) else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_id():
    """Git sha when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log("unknown workload %r (have: %s)" %
            (args.workload, ", ".join(config["workloads"])))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "macrobench"))
    if binary is None:
        log("build failed")
        return 2

    workload = config["workloads"][args.workload]
    workdir = os.path.abspath(os.path.join(
        ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    for key, value in workload.items():
        cmd += ["--" + key, str(value)]
    # Write back the build's and earlier runs' dirty pages now, not during
    # the WAL fsyncs being timed.
    os.sync()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out after %d s" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log("benchmark binary exited %d without a result" % proc.returncode)
        return 2
    result = json.loads(lines[-1])

    log("workload %s (%s), seed %d, %s s, trace %d" %
        (args.workload, workload["deployment"], args.seed, args.seconds,
         args.trace))
    log("context: nproc %s, pool threads %s, cpu %s, kernel %s, lsm fs %s, "
        "build Release, compiler gcc %s, source %s" %
        (result["nproc"], result["pool_threads"], cpu_model(),
         platform.release(), result["lsm_fs"], result["compiler"],
         source_id()))
    log("inputs fingerprint %s" % result["fingerprint"])
    log("generator lag p99 %.1f us (bound %.0f us)" %
        (result["generator_lag_p99_us"], result["lag_bound_us"]))
    log("setup runs (s): %s" %
        ", ".join("%.3f" % s for s in result["setup_runs_s"]))
    for line in result["report"]:
        log(line)
    for name, m in sorted(result["metrics"].items()):
        log("metric %-32s %14.4f %-6s n=%d" %
            (name, m["value"], m["unit"], m["samples"]))

    if not result["valid"]:
        log("INVALID run: generator lag p99 %.1f us exceeds the bound of "
            "%.0f us; no result reported" %
            (result["generator_lag_p99_us"], result["lag_bound_us"]))
        return 3
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        log("metrics missing from the run: %s" % ", ".join(missing))
        return 2
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
