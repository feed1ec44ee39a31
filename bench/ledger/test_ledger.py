#!/usr/bin/env python3
"""ledger_smoke: every workload in its shortened mode, untraced and traced,
with its result checked against the names and units in BENCHMARK.json; then
compare.py's verdicts on two synthetic ledgers.

    python3 bench/ledger/test_ledger.py --ledger PATH/dg_ledger --work DIR
"""

import argparse
import copy
import sys
from pathlib import Path

import compare
import run


def check_workloads(binary, work, bench):
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (False, True):
            record = run.run_workload(binary, w, seed=1, seconds=0.2, trace=trace,
                                      smoke=True, work=work)
            line = run.contract_line(record, bench)  # raises on a bad name or unit
            mode = "traced" if trace else "untraced"
            assert line["correct"], f"{w} {mode}: {record['failures']}"
            if trace:
                assert record["self_ms"], f"{w}: no per-layer split"
                dropped = record["layers"]["obs.dropped_spans"]["value"]
                assert dropped == 0, f"{w}: {dropped} spans dropped"
            print(f"ok  {w} {mode}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} checked operations")


def synthetic_runs(bench, scale):
    """12 untraced runs and one traced run per workload; every metric is
    spread +-1% around 100 (times `scale` in the worse direction)."""
    runs = []
    for w in (x["name"] for x in bench["workloads"]):
        for i in range(12):
            wobble = 1.0 + 0.01 * ((i * 7) % 5 - 2) / 2
            metrics = {}
            for spec in bench["end_to_end"]:
                worse = scale if spec["better"] == "lower" else 1.0 / scale
                metrics[spec["name"]] = {"value": 100.0 * wobble * worse,
                                         "unit": spec["unit"], "n": 1}
            runs.append({"workload": w, "trace": False, "metrics": metrics,
                         "attempted": 100, "failed": 0})
        runs.append({"workload": w, "trace": True,
                     "self_ms": {"critic": 10.0 * scale, "generator": 5.0}})
    return runs


def check_compare(bench):
    base = synthetic_runs(bench, 1.0)
    better = {s["name"]: s["better"] for s in bench["end_to_end"]}
    for scale, everywhere in ((1.4, "regression"), (1.02, "within-bound")):
        rows = compare.compare(base, synthetic_runs(bench, scale), bench)
        assert len(rows) == len(bench["workloads"]) * (len(bench["end_to_end"]) + 1)
        for r in rows:
            if r["metric"] == "fail_frac":
                assert r["verdict"] == "within-bound", r
                continue
            worse = scale - 1 if better[r["metric"]] == "lower" else 1 - 1 / scale
            want = "regression" if worse > r["bound"] else "within-bound"
            assert r["verdict"] == want == everywhere, (scale, r)
        print(f"ok  compare: {100 * (scale - 1):.0f}% worse -> {everywhere} everywhere")
    faster = copy.deepcopy(base)
    for r in faster:
        for m in r.get("metrics", {}).values():
            m["value"] *= 0.9
    rows = compare.compare(base, faster, bench)
    lower = {s["name"] for s in bench["end_to_end"] if s["better"] == "lower"}
    assert all(r["verdict"] == "gain" for r in rows if r["metric"] in lower), rows
    for r in faster:
        r["failed"] = 1 if not r["trace"] else 0
    rows = compare.compare(base, faster, bench)
    assert all(r["verdict"] == ("regression" if r["metric"] == "fail_frac" else "void-gain")
               for r in rows if r["metric"] in lower | {"fail_frac"}), rows
    diff = compare.tree_diff([r for r in base if r["trace"]][:1],
                             [r for r in synthetic_runs(bench, 1.2) if r["trace"]][:1])
    assert diff[0][0] == "critic", diff
    print("ok  compare: 10% faster -> gain, void with more failures; "
          "tree diff names 'critic'")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ledger", required=True, help="path of the dg_ledger binary")
    ap.add_argument("--work", required=True, help="writable directory")
    args = ap.parse_args()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    bench = run.load_benchmark()
    check_compare(bench)
    check_workloads(Path(args.ledger), Path(args.work), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
