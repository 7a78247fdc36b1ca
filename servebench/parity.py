#!/usr/bin/env python3
"""Serve parity: bench_serve must leave the same state as `traceweaver serve`.

    python3 servebench/parity.py --bench BENCH_SERVE --cli TRACEWEAVER \
        --work-dir DIR

For a 3 s slice of hotel_400 and of capture_faulty_400 (seed 1), bench_serve
runs with --keep, which leaves its stream, call graph, seed store, final
store, checkpoint directory and the equivalent serve flags in the work
directory.
The CLI then serves the same stream on a copy of the seed store with those
flags. The store segments and the checkpoint, committer and sampler files
(source byte offset included) must be byte-identical, and the CLI's final
assignment must hash to the bench's assign_fingerprint. Exit status 1 on any
difference.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hotel_400", "capture_faulty_400")
SECONDS = 3
CKPT_FILES = ("checkpoint.jsonl", "committer.jsonl", "sampler.jsonl")


def fingerprint(assignment_lines):
    """FNV-1a 64 of sorted "child:parent\\n" rows, as bench_serve computes."""
    rows = []
    for line in assignment_lines:
        if line.strip():
            row = json.loads(line)
            rows.append((row["span"], row["parent"]))
    h = 1469598103934665603
    for child, parent in sorted(rows):
        for byte in f"{child}:{parent}\n".encode():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def diff_dirs(a, b, names=None):
    """Names whose bytes differ (or exist on one side only)."""
    if names is None:
        names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    out = []
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not os.path.exists(pa) and not os.path.exists(pb):
            continue
        if not (os.path.exists(pa) and os.path.exists(pb)) or \
                not filecmp.cmp(pa, pb, shallow=False):
            out.append(name)
    return out


def check(workload, args):
    root = os.path.join(args.work_dir, workload)
    shutil.rmtree(root, ignore_errors=True)
    bench_dir = os.path.join(root, "bench")
    cli_store = os.path.join(root, "cli", "store")
    cli_ckpt = os.path.join(root, "cli", "ckpt")
    bench_json = os.path.join(root, "bench.json")
    subprocess.run([args.bench, f"--workload={workload}",
                    f"--seconds={SECONDS}",
                    f"--work-dir={bench_dir}", f"--json={bench_json}",
                    "--keep"], check=True, stdout=subprocess.DEVNULL)
    shutil.copytree(os.path.join(bench_dir, "seed"), cli_store)
    os.makedirs(cli_ckpt)
    with open(os.path.join(bench_dir, "serve_flags.txt")) as f:
        flags = f.read().split()
    proc = subprocess.run(
        [args.cli, "serve", *flags, f"--store-dir={cli_store}",
         f"--checkpoint-dir={cli_ckpt}",
         os.path.join(bench_dir, "graph.txt"),
         os.path.join(bench_dir, "stream.jsonl")],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    with open(bench_json) as f:
        bench_fp = json.load(f)["assign_fingerprint"]

    problems = [f"store file {n}" for n in
                diff_dirs(os.path.join(bench_dir, "store"), cli_store)]
    problems += [f"checkpoint file {n}" for n in
                 diff_dirs(os.path.join(bench_dir, "ckpt"), cli_ckpt,
                           CKPT_FILES)]
    cli_fp = fingerprint(proc.stdout.splitlines())
    if cli_fp != bench_fp:
        problems.append(f"assignment fingerprint {cli_fp} != {bench_fp}")
    if problems:
        print(f"{workload}: DIFFERS: " + "; ".join(problems))
        return False
    ckpts = [n for n in CKPT_FILES
             if os.path.exists(os.path.join(cli_ckpt, n))]
    print(f"{workload}: identical ({len(os.listdir(cli_store))} segments, "
          f"{', '.join(ckpts)}; fingerprint {bench_fp})")
    shutil.rmtree(root)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--bench", required=True)
    ap.add_argument("--cli", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    ok = all([check(w, args) for w in WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
