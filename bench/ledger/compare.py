#!/usr/bin/env python3
"""Compares two sets of ledger runs: A (the parent) against B (the change).

    python3 bench/ledger/compare.py A/ B/

A and B are ledger files written by `run.py --out`, or directories of them.
The i-th untraced run of a workload in A is paired with the i-th in B (file
name order, then run order), so write the pairs alternately: parent first,
then change first, and so on.

For each (workload, end-to-end metric) it prints one row: each side's median
and quartiles, B's change against A, the pairs B won, and a verdict:

  gain            B won >= 90% of the pairs (ties count for neither side) and
                  the medians differ by more than A's interquartile range
  regression      B's median is worse than A's by more than the metric's
                  bound in BENCHMARK.json
  within-bound    neither
  unresolved      the run-to-run spread (IQR / median, either side) is wider
                  than the bound, and not every B run beats every A run
  better          spread wider than the bound, but every B run beats every
                  A run
  too-few-pairs   fewer than 10 pairs; no claim either way
  void-gain       a gain on a workload where B failed a larger share of its
                  operations than A

Each workload also gets a fail_frac row (failed / attempted operations over
all its runs); any increase is a regression.

When both sides hold traced runs, it also diffs their per-layer trees (the
split of one unit of work) and names the layer whose self time moved most.
Exits 1 when any row is a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        runs += json.loads(f.read_text())["runs"]
    return runs


def by_workload(runs, traced):
    out = {}
    for r in runs:
        if bool(r["trace"]) == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def verdict(a, b, better, bound):
    """Paired comparison of one metric; a and b are the values in run order."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: B better
    med_a, med_b = statistics.median(a), statistics.median(b)
    (q1a, q3a), (q1b, q3b) = run.quartiles(a), run.quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    improvement = sign * (med_a - med_b)
    spread = max((q3a - q1a) / med_a if med_a else 0.0,
                 (q3b - q1b) / med_b if med_b else 0.0)
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if n < MIN_PAIRS:
        v = "too-few-pairs"
    elif improvement > 0 and wins >= WIN_SHARE * n and improvement > q3a - q1a:
        v = "gain"
    elif spread > bound:
        v = "better" if all_better else "unresolved"
    elif med_a and -improvement / med_a > bound:
        v = "regression"
    else:
        v = "within-bound"
    return {"pairs": n, "a": (med_a, q1a, q3a), "b": (med_b, q1b, q3b),
            "change": (med_b - med_a) / med_a if med_a else 0.0,
            "wins": wins, "spread": spread, "verdict": v}


def fail_frac(records):
    return (sum(r["failed"] for r in records) /
            max(1, sum(r["attempted"] for r in records)))


def compare(runs_a, runs_b, bench):
    """One row per (workload, end-to-end metric) present on both sides, plus
    one fail_frac row per workload: any increase in the share of failed
    operations is a regression, and voids the workload's gains."""
    rows = []
    a_w, b_w = by_workload(runs_a, False), by_workload(runs_b, False)
    for w in (x["name"] for x in bench["workloads"]):
        if w not in a_w or w not in b_w:
            continue
        fa, fb = fail_frac(a_w[w]), fail_frac(b_w[w])
        more_failures = fb > fa
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in a_w[w]]
            b = [r["metrics"][name]["value"] for r in b_w[w]]
            row = verdict(a, b, spec["better"], spec["bound"])
            if more_failures and row["verdict"] == "gain":
                row["verdict"] = "void-gain"
            row.update(workload=w, metric=name, unit=spec["unit"], bound=spec["bound"])
            rows.append(row)
        rows.append({"workload": w, "metric": "fail_frac", "unit": "frac", "bound": 0.0,
                     "pairs": min(len(a_w[w]), len(b_w[w])), "a": (fa, fa, fa),
                     "b": (fb, fb, fb), "change": fb - fa, "wins": 0, "spread": 0.0,
                     "verdict": "regression" if more_failures else "within-bound"})
    return rows


def tree_diff(traced_a, traced_b):
    """Median self time per layer on each side; rows sorted by |B - A|."""
    def medians(records):
        layers = {}
        for r in records:
            for name, ms in r["self_ms"].items():
                layers.setdefault(name, []).append(ms)
        return {k: statistics.median(v) for k, v in layers.items()}
    a, b = medians(traced_a), medians(traced_b)
    rows = [(name, a.get(name, 0.0), b.get(name, 0.0)) for name in sorted(set(a) | set(b))]
    return sorted(rows, key=lambda r: -abs(r[2] - r[1]))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="parent ledger file or directory")
    ap.add_argument("b", help="change ledger file or directory")
    ap.add_argument("--benchmark", default=str(run.ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = run.load_benchmark(args.benchmark)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)

    rows = compare(runs_a, runs_b, bench)
    print(f"{'workload':<15} {'metric':<18} {'pairs':>5} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'wins':>5}  verdict")
    for r in rows:
        a = "{:.4g} [{:.4g}, {:.4g}]".format(*r["a"])
        b = "{:.4g} [{:.4g}, {:.4g}]".format(*r["b"])
        print(f"{r['workload']:<15} {r['metric']:<18} {r['pairs']:>5} {a:>30} {b:>30} "
              f"{100 * r['change']:>7.2f}% {r['wins']:>5}  {r['verdict']} "
              f"(bound {100 * r['bound']:.0f}%, spread {100 * r['spread']:.1f}%)")

    ta, tb = by_workload(runs_a, True), by_workload(runs_b, True)
    for w in sorted(set(ta) & set(tb)):
        diff = tree_diff(ta[w], tb[w])
        if not diff:
            continue
        print(f"\n{w}: per-layer split of one unit of work (ms, traced medians)")
        for name, a, b in diff:
            print(f"  {name:<28} {a:>10.4g} -> {b:<10.4g} ({b - a:+.4g})")
        print(f"  moved most: {diff[0][0]} ({diff[0][2] - diff[0][1]:+.4g} ms)")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
