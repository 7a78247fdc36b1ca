#!/usr/bin/env python3
"""Builds bench_serve from source and runs it.

One workload (the last stdout line is the result JSON):

    python3 servebench/run.py --workload hotel_400 --seed 1 --trace 0

Every workload in turn, keeping each run's JSON in DIR (non-zero exit if
any correctness check fails):

    python3 servebench/run.py --seed 1 --out DIR [--trace 1]

Check that the binary emits exactly the metrics BENCHMARK.json names:

    python3 servebench/run.py --check-metrics [BENCH_SERVE_BINARY]

Run from the repository root. The build lives in .bench_build/ there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "bench_serve")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build():
    """Configures and builds bench_serve; build output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "bench_serve",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("run.py: build failed: " + " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, traced, out_dir):
    """Runs one workload; returns (exit code, result dict or None)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}" +
                        ("-trace" if traced else ""))
    json_path = stem + ".json"
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={json_path}",
           f"--work-dir={os.path.join(BUILD_ROOT, 'work', str(os.getpid()))}"]
    if traced:
        cmd.append(f"--trace={stem}.trace.jsonl")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stdout.write(proc.stdout)
    if not os.path.exists(json_path):
        return proc.returncode or 1, None
    with open(json_path) as f:
        return proc.returncode, json.load(f)


def check_metrics(binary):
    """The binary's catalogue must equal BENCHMARK.json's, units included."""
    bench = load_benchmark()
    want = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            want[m["name"]] = (m["unit"], kind)
    out = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    have = {}
    for line in out.splitlines():
        name, unit, kind = line.split()
        have[name] = (unit, kind)
    ok = True
    for name in sorted(set(want) | set(have)):
        if want.get(name) != have.get(name):
            log(f"metric {name}: BENCHMARK.json {want.get(name)}, "
                f"binary {have.get(name)}")
            ok = False
    workloads = {w["name"] for w in bench["workloads"]}
    usage = subprocess.run([binary], stderr=subprocess.PIPE, text=True).stderr
    listed = set(usage.split("workloads:")[-1].split())
    if workloads != listed:
        log(f"workloads: BENCHMARK.json {sorted(workloads)}, "
            f"binary {sorted(listed)}")
        ok = False
    print("metric catalogue " + ("matches" if ok else "DIFFERS"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for run JSONs (all workloads)")
    ap.add_argument("--check-metrics", nargs="?", const=BINARY, metavar="BIN")
    args = ap.parse_args()

    if args.check_metrics:
        if args.check_metrics == BINARY and not build():
            return 1
        return check_metrics(args.check_metrics)

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; one of {names}")
        return 2
    if not build():
        return 1

    if args.workload is not None:
        code, res = run_workload(args.workload, args.seed, seconds,
                                 args.trace == 1,
                                 os.path.join(BUILD_ROOT, "results"))
        if res is None:
            return code or 1
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {}
        for m in bench[kind]:
            if m["name"] not in res["metrics"]:
                log(f"run.py: {args.workload} did not report {m['name']}")
                return 1
            metrics[m["name"]] = res["metrics"][m["name"]]
        print(json.dumps({"correct": bool(res["correct"]) and code == 0,
                          "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": metrics}))
        return code

    out = args.out or os.path.join(BUILD_ROOT, "results")
    worst = 0
    for name in names:
        code, res = run_workload(name, args.seed, seconds, args.trace == 1,
                                 out)
        worst = worst or code or (1 if res is None else 0)
    return worst


if __name__ == "__main__":
    sys.exit(main())
