#!/usr/bin/env python3
"""Runs one workload of the sash benchmark and prints its result.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a sash checkout. The first run builds sash and the
workload program from source with CMake into .bench_build/perfbench; later
runs reuse that build. Each workload run is a fresh process (plus, with
--trace 0, four more set-up-only processes: set-up time is the median of the
five). The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. Build output and
diagnostics go to stderr; metrics measured beyond that list are logged
there too. BENCHMARK.json gates cold and warm; serve and isolate run the
same way but are not gated (see perfbench/README.md). Without the sash
sources next to this directory the script exits with status 2 and prints no
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold", "warm", "serve", "isolate")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); stdout is returned."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE,
                              text=True, **kwargs)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"exit status {proc.returncode}: {' '.join(map(str, cmd))}")
        sys.exit(1)
    return proc.stdout


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            timeout=300, stderr=sys.stderr)
    out = run(["cmake", "--build", str(BUILD), "-j", jobs], timeout=850, stderr=sys.stderr)
    sys.stderr.write(out)


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log("the workload printed no result")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    sources = ROOT / "src" / "CMakeLists.txt"
    if not sources.is_file() or not (ROOT / "examples" / "scripts").is_dir():
        log(f"no sash sources under {ROOT}; nothing to build")
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    build()
    if args.selftest:
        run([str(BUILD / "sashbench_selftest")], timeout=120, stderr=sys.stderr)
        check_layer_map(spec)
        smoke_all_workloads(spec)
        print("selftest ok")
        return

    cmd = [str(BUILD / "sashbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    main_run = result_line(run(cmd, timeout=170, stderr=sys.stderr))
    setups = [main_run["setup_s"]]
    if args.trace == 0:
        for _ in range(4):
            setups.append(result_line(run(cmd + ["--setup-only"], timeout=60,
                                          stderr=sys.stderr))["setup_s"])
    measured = dict(main_run["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            log(f"metric {m['name']} was not measured")
            sys.exit(1)
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    extra = {k: v for k, v in measured.items() if k not in metrics}
    if extra:
        log(f"measured beyond BENCHMARK.json: {json.dumps(extra)}")
    log(f"corpus digest {main_run['digest']} (workload {args.workload}, seed {args.seed})")
    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))


def smoke_all_workloads(spec):
    """A short run of every workload, gated or not: no failures, every metric."""
    for workload in WORKLOADS:
        cmd = [str(BUILD / "sashbench"), "--workload", workload, "--seed", "7", "--seconds", "2"]
        result = result_line(run(cmd, timeout=120, stderr=subprocess.DEVNULL))
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] != "setup_s" and m["name"] not in result["metrics"]]
        if result["failed"] != 0 or result["attempted"] < 1 or missing:
            raise SystemExit(f"{workload}: failed={result['failed']} missing={missing}")


def check_layer_map(spec):
    """Every per-layer metric names the end-to-end metric and workload it moves."""
    layer_map = json.loads((HERE / "layers.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = set(WORKLOADS)
    for m in spec["per_layer"]:
        entry = layer_map.get(m["name"])
        if entry is None:
            raise SystemExit(f"layers.json has no entry for {m['name']}")
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            if metric not in e2e or workload not in names:
                raise SystemExit(f"layers.json: bad target {target} for {m['name']}")
    extra = set(layer_map) - {m["name"] for m in spec["per_layer"]}
    if extra:
        raise SystemExit(f"layers.json names unknown metrics: {sorted(extra)}")


if __name__ == "__main__":
    main()
