#!/usr/bin/env python3
"""Compares two sets of bench_serve runs, metric by metric.

    python3 servebench/compare.py BASE_DIR CHANGE_DIR [--same-code]
    python3 servebench/compare.py --self-test

Each directory holds the run JSONs bench_serve writes with --json (searched
recursively; traced runs are skipped), at least 5 runs per workload, made
alternately with the other set. Runs pair up in file-name order.

For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles and a verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound
  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the base's interquartile range
  unchanged   neither
  unresolved  a set's interquartile range is wider than the bound, and
              the runs do not all fall on one side

Runs of one workload and seed must agree on assign_fingerprint and
trace_accuracy within a set; with --same-code (both sets built from the
same code) also across sets, and every verdict must be `unchanged`.
Exit status 1 when that fails or any verdict is `worse`.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
MIN_RUNS = 5


def load_runs(directory):
    """Untraced run JSONs under `directory`, in file-name order."""
    runs = []
    for dirpath, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                try:
                    run = json.load(f)
                except json.JSONDecodeError:
                    continue
            if isinstance(run, dict) and "workload" in run and \
                    "metrics" in run and not run.get("traced"):
                runs.append(run)
    return runs


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """Verdict for one metric; base/change are value lists in pair order."""
    q1a, meda, q3a = quartiles(base)
    q1b, medb, q3b = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0

    def beats(x, y):  # x better than y
        return sign * (x - y) > 0

    spread = max((q3a - q1a) / abs(meda) if meda else 0.0,
                 (q3b - q1b) / abs(medb) if medb else 0.0)
    if spread > bound:
        if all(beats(b, a) for b in change for a in base):
            return "better"
        if all(beats(a, b) for b in change for a in base):
            return "worse"
        return "unresolved"
    worse_by = -sign * (medb - meda) / abs(meda) if meda else 0.0
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if beats(b, a))
    if pairs and wins >= 0.9 * len(pairs) and beats(medb, meda) and \
            abs(medb - meda) > (q3a - q1a):
        return "better"
    return "unchanged"


def identity_problems(sets, same_code):
    """assign_fingerprint / trace_accuracy disagreements, as messages."""
    problems = []
    keyed = {}
    for label, runs in sets:
        for run in runs:
            key = (run["workload"], run.get("seed"))
            ident = (run.get("assign_fingerprint"),
                     run["metrics"].get("trace_accuracy", {}).get("value"))
            keyed.setdefault(key, {}).setdefault(label, set()).add(ident)
    for (workload, seed), per_set in sorted(keyed.items()):
        for label, idents in per_set.items():
            if len(idents) > 1:
                problems.append(f"{workload} seed {seed}: runs in {label} "
                                f"disagree on fingerprint/accuracy {idents}")
        if same_code and len(per_set) == 2:
            a, b = per_set.values()
            if a != b:
                problems.append(f"{workload} seed {seed}: sets disagree on "
                                f"fingerprint/accuracy {a} vs {b}")
    return problems


def compare(base_runs, change_runs, bench, same_code):
    """Returns (report lines, ok)."""
    lines = []
    ok = True
    base, change = by_workload(base_runs), by_workload(change_runs)
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = base.get(workload, []), change.get(workload, [])
        if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
            lines.append(f"{workload}: {len(a)} base and {len(b)} change "
                         f"runs; need {MIN_RUNS} each")
            ok = False
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            v = verdict(va, vb, m["better"], m["bound"])
            q1a, meda, q3a = quartiles(va)
            q1b, medb, q3b = quartiles(vb)
            delta = (medb - meda) / abs(meda) * 100 if meda else 0.0
            lines.append(
                f"{workload:<19} {name:<20} {m['unit']:<8} "
                f"{meda:>11.5g} [{q1a:.5g}, {q3a:.5g}]  "
                f"{medb:>11.5g} [{q1b:.5g}, {q3b:.5g}]  "
                f"{delta:+6.2f}%  bound {m['bound'] * 100:g}%  {v}")
            if v == "worse" or (same_code and v != "unchanged"):
                ok = False
    problems = identity_problems([("base", base_runs),
                                  ("change", change_runs)], same_code)
    lines.extend("MISMATCH " + p for p in problems)
    return lines, ok and not problems


def self_test():
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "cap", "unit": "1/s", "better": "higher",
                             "bound": 0.07},
                            {"name": "lat", "unit": "ms", "better": "lower",
                             "bound": 0.10}]}

    def runs(caps, lats, fp="f", acc=90.0):
        return [{"workload": "w", "seed": 1, "assign_fingerprint": fp,
                 "metrics": {"cap": {"value": c}, "lat": {"value": l},
                             "trace_accuracy": {"value": acc}}}
                for c, l in zip(caps, lats)]

    base = [100, 101, 99, 100.5, 99.5, 100.2]
    lat = [10, 10.1, 9.9, 10.05, 9.95, 10.0]
    assert verdict(base, base, "higher", 0.07) == "unchanged"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.07) == "worse"
    assert verdict(base, [x * 1.2 for x in base], "higher", 0.07) == "better"
    assert verdict(lat, [x * 1.2 for x in lat], "lower", 0.10) == "worse"
    assert verdict(lat, [x * 0.8 for x in lat], "lower", 0.10) == "better"
    # Within the bound and faster in every pair: a gain only once the
    # medians differ by more than the base's IQR (1.25 here).
    assert verdict(base, [x * 1.01 for x in base], "higher", 0.07) == \
        "unchanged"
    assert verdict(base, [x * 1.02 for x in base], "higher", 0.07) == \
        "better"
    wide = [50, 150, 80, 120, 100, 60]
    assert verdict(wide, list(reversed(wide)), "higher", 0.07) == \
        "unresolved"
    assert verdict(wide, [x * 10 for x in wide], "higher", 0.07) == "better"

    _, ok = compare(runs(base, lat), runs(base, lat), bench, True)
    assert ok
    _, ok = compare(runs(base, lat), runs([x * 0.8 for x in base], lat),
                    bench, False)
    assert not ok
    _, ok = compare(runs(base, lat), runs(base, lat, fp="g"), bench, True)
    assert not ok  # Same code must assign identically.
    _, ok = compare(runs(base, lat), runs(base, lat, fp="g"), bench, False)
    assert ok      # A change may reassign.
    mixed = runs(base, lat)
    mixed[0]["assign_fingerprint"] = "other"
    _, ok = compare(mixed, runs(base, lat), bench, False)
    assert not ok  # Runs of one seed within a set must agree.
    _, ok = compare(runs(base[:3], lat[:3]), runs(base, lat), bench, False)
    assert not ok  # Too few runs.
    print("compare.py self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--same-code", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        ap.error("need BASE_DIR and CHANGE_DIR")
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    lines, ok = compare(load_runs(args.base), load_runs(args.change), bench,
                        args.same_code)
    print(f"{'workload':<19} {'metric':<20} {'unit':<8} "
          f"{'base median [q1, q3]':>30}  {'change median [q1, q3]':>30}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
