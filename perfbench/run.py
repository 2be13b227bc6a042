#!/usr/bin/env python3
"""Runs one workload of the rdfsum benchmark and prints its metrics.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0

Builds the benchmark binary (perfbench.cc, linked against the repository's
library) into $CARGO_TARGET_DIR or .bench_build, writes the seeded request
list, pins itself and the binary to a fixed CPU set, runs the binary and
prints one JSON object as the last line of standard output. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Exits non-zero on a wrong answer, a failed operation or a build failure,
and with code 3 when the host has too few CPUs to measure the workload.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import bench_lib

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Time each bench process may take beyond its share of --seconds: set-up,
# warm-up, calibrations and, in traced runs, the layer probe.
PROCESS_ALLOWANCE_S = 30
# Bench processes per untraced run. Each sets the workload up once in a
# fresh process and measures for seconds / EPOCHS, so set-up samples and
# measured rounds spread over the whole run, and no process inherits a heap
# that earlier set-ups fragmented. A traced run uses one process.
EPOCHS = 5
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the bench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("no rdfsum source tree next to %s" % BENCH_DIR)
    out = build_dir / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return out / "perfbench"


def fingerprint(build_dir, cpus):
    cache = build_dir / "perfbench" / "CMakeCache.txt"
    info = {"cpus": sorted(cpus), "nproc": os.cpu_count(),
            "machine": platform.machine()}
    for line in cache.read_text().splitlines():
        for key in ("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:"):
            if line.startswith(key):
                info[key.split(":")[0].lower()] = line.split("=", 1)[1]
    try:
        version = subprocess.run([info["cmake_cxx_compiler"], "--version"],
                                 capture_output=True, text=True, timeout=30)
        info["compiler"] = version.stdout.splitlines()[0]
    except (KeyError, OSError, IndexError, subprocess.SubprocessError):
        info["compiler"] = "unknown"
    info["commit"] = "unknown (not a git checkout)"
    try:
        git = ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"]
        out = subprocess.run(git, capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            info["commit"] = lines[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_lib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log("perfbench: %s" % err)
        return 2

    # Pin before the binary starts any thread: the highest-numbered CPUs of
    # the allowed set, the same set on every run of the workload.
    triples, need = bench_lib.WORKLOADS[args.workload]
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < need:
        log("perfbench: %s not measured: needs %d CPUs, %d allowed"
            % (args.workload, need, len(allowed)))
        return 3
    cpus = set(allowed[-need:])
    os.sched_setaffinity(0, cpus)

    workdir = build_dir / "runs" / ("%s-%d-%d" % (args.workload, args.seed,
                                                  args.trace))
    workdir.mkdir(parents=True, exist_ok=True)
    reqs_path = workdir / "requests.tsv"
    reqs = bench_lib.requests(args.workload, args.seed)
    reqs_path.write_text(bench_lib.request_file_text(reqs))
    host = fingerprint(build_dir, cpus)
    log("perfbench: host %s" % json.dumps(host))
    (workdir / "host.json").write_text(json.dumps(host, indent=1) + "\n")

    epochs = 1 if args.trace else EPOCHS
    timeout_s = args.seconds + PROCESS_ALLOWANCE_S * epochs
    deadline = time.monotonic() + timeout_s
    raws, codes = [], []
    for epoch in range(epochs):
        raw_path = workdir / ("raw-%d.json" % epoch)
        raw_path.unlink(missing_ok=True)
        cmd = [str(binary), "--workload", args.workload,
               "--requests", str(reqs_path),
               "--products", str(bench_lib.products_for(triples)),
               "--data-seed", str(bench_lib.DATA_SEED),
               "--seconds", str(args.seconds / epochs),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--out", str(raw_path)]
        try:
            codes.append(subprocess.run(
                cmd, stdout=sys.stderr, stderr=sys.stderr, check=False,
                timeout=max(1.0, deadline - time.monotonic())).returncode)
        except subprocess.TimeoutExpired:
            log("perfbench: bench processes exceeded %.0f s" % timeout_s)
            return 1
        finally:
            for image in workdir.glob("*.rsb"):
                image.unlink()
        if not raw_path.is_file():
            log("perfbench: bench process exited %d without results" % codes[-1])
            return 1
        raws.append(json.loads(raw_path.read_text()))
    raw = bench_lib.merge_raw(raws)
    for error in raw["errors"]:
        log("perfbench: %s" % error)
    for layer, reason in raw["not_measured"].items():
        log("perfbench: %s layer not measured on %s: %s"
            % (layer, args.workload, reason))
    try:
        metrics = (bench_lib.per_layer(raw) if args.trace
                   else bench_lib.end_to_end(raw))
    except (ValueError, KeyError, ZeroDivisionError,
            bench_lib.statistics.StatisticsError) as err:
        log("perfbench: cannot reduce results: %s" % err)
        return 1
    correct = not any(codes) and raw["ok"] and not raw["errors"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct and raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
